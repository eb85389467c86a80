"""Which layers each entry point loads (DESIGN.md "Import boundaries").

Every check runs in a fresh interpreter without bytecode, the way a
``repro serve`` process or a shard worker starts: the package
``__init__`` modules import nothing until a name is used, so a serving
process never loads the miners, the analysis workflow, the trace
generators or the cluster simulator.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.config import ALGORITHM_NAMES
from repro.core.items import Item, ItemVocabulary
from repro.core.mining import ALGORITHMS
from repro.core.ruletable import RuleTable
from repro.serve.index import RuleIndex
from repro.serve.rulebook import RuleBook

from .test_stream_follow import _bootstrap, _stream

SRC = Path(__file__).resolve().parents[1] / "src"

#: layers a serving process never runs
NOT_SERVING = (
    "repro.analysis",
    "repro.traces",
    "repro.cluster",
    "repro.predict",
    "repro.preprocess",
    "repro.streaming",
    *(
        f"repro.core.{name}"
        for name in ("apriori", "eclat", "fpgrowth", "mining", "pruning")
    ),
)

#: the packages whose names resolve on first use
LAZY_PACKAGES = (
    "repro", "repro.core", "repro.serve", "repro.analysis", "repro.engine",
    "repro.traces",
)


def _fresh(code: str) -> set[str]:
    """Run *code* in a new interpreter; the modules it left loaded."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    code += "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def _present(loaded: set[str], layers) -> list[str]:
    return sorted(
        name for name in loaded
        for layer in layers
        if name == layer or name.startswith(layer + ".")
    )


@pytest.fixture(scope="module")
def book_path(tmp_path_factory) -> Path:
    items = [Item.flag("Failed"), Item("GPU", "T4"), Item.flag("Multi-GPU")]
    table = RuleTable(
        ItemVocabulary(items), [0, 1, 3], [1, 1, 2], [0, 1, 2], [0, 0],
        [0.2, 0.1], [0.8, 0.9], [2.0, 3.0], [0.05, 0.04], [2.5, float("inf")],
    )
    path = tmp_path_factory.mktemp("book") / "book.jsonl"
    RuleBook(table=table, trace="test").save(path)
    return path


def test_one_process_serve_path(book_path):
    """What ``cmd_serve`` runs for ``--shards 1``: load, compile, answer
    (plain and explain), label the metrics, swap the index."""
    loaded = _fresh(
        "import asyncio\n"
        "from repro.serve.rulebook import RuleBook\n"
        "from repro.serve.service import RuleService\n"
        f"book = RuleBook.load({str(book_path)!r})\n"
        "service = RuleService.from_rulebook(book)\n"
        "fires, parts = service.index.wire_batch("
        "[['GPU = T4', 'Multi-GPU'], ['GPU = T4']], [False, True])\n"
        "list(parts)\n"
        "service.metrics.add_fires(fires)\n"
        "assert service.metrics.as_dict(service.index)['rule_matches']\n"
        "service.metrics.retire_index(service.index)\n"
    )
    assert _present(loaded, NOT_SERVING) == []


def test_cli_serve_path(book_path):
    """``python -m repro serve``: the CLI adds only the trace name table."""
    loaded = _fresh(
        "import asyncio\n"
        "asyncio.run = lambda coro: coro.close()  # build the service, do not serve\n"
        "from repro.cli import main\n"
        f"assert main(['serve', '--rulebook', {str(book_path)!r}]) == 0\n"
    )
    allowed = {"repro.traces", "repro.traces.registry"}
    assert _present(loaded, NOT_SERVING) == sorted(allowed)


def test_shard_worker(book_path):
    loaded = _fresh(
        "import repro.serve._shard_worker\n"
        "from repro.serve.shard import _build_worker_parser, _worker_service\n"
        "args = _build_worker_parser().parse_args("
        f"['--rulebook', {str(book_path)!r}])\n"
        "_worker_service(args)\n"
    )
    assert _present(loaded, NOT_SERVING) == []


def test_follow_tick_imports_nothing_on_its_thread(tmp_path):
    """The worker-thread half of a follow tick — ingest, drift gate,
    remine, save, plane publish — finds every module already imported,
    as the CLI's follow process leaves it before its first tick."""
    _, refresher = _bootstrap(seed=5, warmup=192)
    refresher.book.save(tmp_path / "initial.jsonl")
    (tmp_path / "batch.json").write_text(json.dumps(_stream(100, 64)))
    _fresh(
        "import json, sys, threading\n"
        "from repro.serve.rulebook import RuleBook\n"
        "from repro.shm.segment import shm_available\n"
        "from repro.streaming import RuleBookRefresher, StreamFollower, "
        "StreamingBitmapWindow\n"
        f"tmp = {str(tmp_path)!r}\n"
        "window = StreamingBitmapWindow(192)\n"
        "refresher = RuleBookRefresher(window, RuleBook.load(tmp + '/initial.jsonl'), "
        "threshold=0.0)\n"
        "follower = StreamFollower(refresher, tmp + '/events.ndjson', out_dir=tmp)\n"
        "batch = json.load(open(tmp + '/batch.json'))\n"
        "shm_available()  # StreamFollower.run probes on the event loop\n"
        "before = set(sys.modules)\n"
        "def tick():\n"
        "    result = follower._ingest_and_tick(batch)\n"
        "    assert result.remined\n"
        "    follower._save_book(result)\n"
        "    lease = follower._publish_plane(result)\n"
        "    if lease is not None:\n"
        "        lease.unlink()\n"
        "thread = threading.Thread(target=tick)\n"
        "thread.start()\n"
        "thread.join()\n"
        "first_on_thread = sorted(set(sys.modules) - before)\n"
        "assert not first_on_thread, first_on_thread\n"
    )


def test_mine_pass_leaves_numpy_ma_unloaded(tmp_path):
    """``repro mine-rulebook`` over the three traces never touches
    ``numpy.ma``: a bare ``np.unique`` (``np.quantile`` calls one) imports
    it, tens of milliseconds a cold mining process would pay."""
    loaded = _fresh(
        "from repro.cli import main\n"
        "for trace in ('pai', 'supercloud', 'philly'):\n"
        "    assert main(['mine-rulebook', '--trace', trace, '--n-jobs', '2000',\n"
        f"                 '--output', {str(tmp_path)!r} + f'/{{trace}}.jsonl']) == 0\n"
    )
    assert "numpy.ma" not in loaded


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_exported_name_resolves(package):
    """Each ``__all__`` name is the object of the module its table names."""
    _fresh(
        "import importlib, types\n"
        f"package = importlib.import_module({package!r})\n"
        "for name in package.__all__:\n"
        "    value = getattr(package, name)\n"
        "    if name == '__version__':\n"
        "        continue\n"
        "    home = importlib.import_module(package._EXPORTS[name], package.__name__)\n"
        "    assert value is getattr(home, name), name\n"
        "    assert not isinstance(value, types.ModuleType), name\n"
    )


def test_unknown_name_is_an_attribute_error():
    for package in LAZY_PACKAGES:
        with pytest.raises(AttributeError):
            getattr(importlib.import_module(package), "no_such_name")


@pytest.mark.parametrize("module", (
    "repro.core.negative", "repro.core.interest", "repro.core.patterns",
    "repro.analysis.compare", "repro.analysis.html_report", "repro.privacy",
))
def test_deleted_module_is_gone(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)


@pytest.mark.parametrize("owner, name", (
    ("repro", "generate_rules"),
    ("repro", "prune_rules"),
    ("repro.core", "generate_rules"),
    ("repro.core", "prune_rules"),
    ("repro.core", "keyword_rules"),
    ("repro.core.rules", "generate_rules"),
    ("repro.core.pruning", "prune_rules"),
    ("repro.core.pruning", "keyword_rules"),
    ("repro.serve.rulebook", "_canonical_from_rules"),
))
def test_deleted_name_is_gone(owner, name):
    # rule generation and pruning take and return tables only
    with pytest.raises(AttributeError):
        getattr(importlib.import_module(owner), name)


def test_rule_table_has_no_object_constructor():
    with pytest.raises(AttributeError):
        RuleTable.from_rules  # noqa: B018


@pytest.mark.parametrize("build", (RuleBook, RuleIndex))
def test_books_and_indexes_take_no_rule_objects(build):
    with pytest.raises(TypeError):
        build(rules=())


def test_one_class_named_rule_table():
    import repro
    import repro.core.ruletable

    assert repro.RuleTable is repro.core.ruletable.RuleTable
    assert "RuleTable" not in importlib.import_module("repro.analysis").__all__


def test_config_names_every_miner():
    assert tuple(ALGORITHMS) == ALGORITHM_NAMES
