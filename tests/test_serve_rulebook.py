"""Tests for RuleBook persistence: exact round trips, schema versioning."""

import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MiningConfig
from repro.core.items import Item, ItemVocabulary
from repro.core.rules import AssociationRule
from repro.serve import SCHEMA_VERSION, RuleBook, RuleBookSchemaError
from repro.traces import SuperCloudConfig, generate_supercloud, supercloud_preprocessor
from repro.analysis import InterpretableAnalysis

from .oracles import table_of


def random_rules(rng: random.Random, n_rules: int, n_items: int = 40):
    """Random but well-formed rules over a shared vocabulary.

    Metrics are arbitrary floats (not mutually consistent) on purpose:
    persistence must round-trip whatever values the rule carries,
    including the conviction = inf of exact implications.
    """
    vocabulary = ItemVocabulary(
        Item(f"F{k % 7}", f"v{k}") for k in range(n_items)
    )
    rules = []
    for _ in range(n_rules):
        size = rng.randint(2, 6)
        ids = rng.sample(range(n_items), size)
        cut = rng.randint(1, size - 1)
        antecedent_ids = frozenset(ids[:cut])
        consequent_ids = frozenset(ids[cut:])
        rules.append(
            AssociationRule(
                antecedent=vocabulary.items_of(antecedent_ids),
                consequent=vocabulary.items_of(consequent_ids),
                antecedent_ids=antecedent_ids,
                consequent_ids=consequent_ids,
                support=rng.random(),
                confidence=rng.random(),
                lift=rng.random() * 10,
                leverage=rng.random() - 0.5,
                conviction=math.inf if rng.random() < 0.2 else rng.random() * 5,
            )
        )
    return rules


class TestRoundTrip:
    def test_every_field_survives_bit_exact(self, tmp_path):
        # property-style: many random rules, every field compared exactly
        rng = random.Random(7)
        book = RuleBook(
            table_of(random_rules(rng, 200)),
            trace="pai",
            keywords={"failure": "Failed", "underutil": "SM Util = 0%"},
            config=MiningConfig(min_support=0.03, max_len=4),
            fingerprint="cafe" * 8,
            backend="auto:serial",
            n_transactions=12345,
        )
        path = tmp_path / "book.jsonl"
        book.save(path)
        loaded = RuleBook.load(path)

        assert len(loaded) == len(book)
        for original, restored in zip(book.rules, loaded.rules):
            assert restored.antecedent == original.antecedent
            assert restored.consequent == original.consequent
            assert restored.antecedent_ids == original.antecedent_ids
            assert restored.consequent_ids == original.consequent_ids
            for name in ("support", "confidence", "lift", "leverage"):
                assert getattr(restored, name) == getattr(original, name)
            if math.isinf(original.conviction):
                assert math.isinf(restored.conviction)
            else:
                assert restored.conviction == original.conviction
        assert loaded.trace == book.trace
        assert loaded.keywords == book.keywords
        assert loaded.config == book.config
        assert loaded.fingerprint == book.fingerprint
        assert loaded.backend == book.backend
        assert loaded.n_transactions == book.n_transactions

    def test_save_load_save_is_byte_stable(self, tmp_path):
        rng = random.Random(11)
        book = RuleBook(table_of(random_rules(rng, 50)))
        first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        book.save(first)
        RuleBook.load(first).save(second)
        assert first.read_bytes() == second.read_bytes()

    def test_file_is_strict_json_lines(self, tmp_path):
        # even with inf conviction every line must parse as strict JSON
        rng = random.Random(3)
        rules = random_rules(rng, 30)
        assert any(math.isinf(r.conviction) for r in rules)
        path = tmp_path / "book.jsonl"
        RuleBook(table_of(rules)).save(path)
        for line in path.read_text().splitlines():
            json.loads(line)  # json.loads accepts Infinity; check the text
            assert "Infinity" not in line

    def test_id_space_is_canonical(self, tmp_path):
        # two books over the same rules mined through differently-ordered
        # vocabularies serialize identically
        rules = random_rules(random.Random(5), 20)
        shuffled = list(rules)
        random.Random(6).shuffle(shuffled)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        RuleBook(table_of(rules)).save(a)
        RuleBook(table_of(shuffled)).save(b)
        assert a.read_bytes() == b.read_bytes()


class TestObjectTables:
    """Hand-built rule objects reach a book through ``tests.oracles.table_of``,
    which keys every item by itself: ids whose order differs from the items'
    must not pair an item with another item's id."""

    @staticmethod
    def _sides(rules):
        return sorted(
            (sorted(r.antecedent), sorted(r.consequent), r.support, r.lift)
            for r in rules
        )

    def _round_trip(self, rules, tmp_path):
        path = tmp_path / "book.jsonl"
        RuleBook(table_of(rules)).save(path)
        return RuleBook.load(path)

    def test_random_rules_keep_their_items(self, tmp_path):
        # random_rules' ids follow Item(f"F{k % 7}", f"v{k}"), not item order
        rules = random_rules(random.Random(0), 50)
        loaded = self._round_trip(rules, tmp_path)
        assert self._sides(loaded.rules) == self._sides(rules)

    def test_ids_against_item_order(self, tmp_path):
        # {a, b} => {k} and {a} => {k} over the vocabulary [b, a, k]
        a, b, k = Item.flag("a"), Item.flag("b"), Item.flag("k")
        vocabulary = ItemVocabulary([b, a, k])

        def rule(ant, cons, lift):
            return AssociationRule(
                frozenset(ant), frozenset(cons),
                vocabulary.encode(ant), vocabulary.encode(cons),
                0.25, 0.5, lift, 0.0, 1.0,
            )

        rules = [rule([a, b], [k], 3.0), rule([a], [k], 2.0)]
        assert table_of(rules, vocabulary).to_rules() == rules
        loaded = self._round_trip(rules, tmp_path)
        assert [(r.antecedent, r.consequent) for r in loaded.rules] == [
            (frozenset({a, b}), frozenset({k})), (frozenset({a}), frozenset({k})),
        ]


class TestSchemaGuards:
    def test_refuses_other_schema_version(self, tmp_path):
        path = tmp_path / "book.jsonl"
        RuleBook(table_of(random_rules(random.Random(0), 3))).save(path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["schema_version"] = SCHEMA_VERSION + 1
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(RuleBookSchemaError, match="schema_version"):
            RuleBook.load(path)

    def test_refuses_missing_header(self, tmp_path):
        path = tmp_path / "book.jsonl"
        path.write_text('{"record": "rule"}\n')
        with pytest.raises(RuleBookSchemaError, match="header"):
            RuleBook.load(path)

    def test_refuses_empty_file(self, tmp_path):
        path = tmp_path / "book.jsonl"
        path.write_text("")
        with pytest.raises(RuleBookSchemaError, match="empty"):
            RuleBook.load(path)

    def test_refuses_garbage(self, tmp_path):
        path = tmp_path / "book.jsonl"
        path.write_text("not json at all\n")
        with pytest.raises(RuleBookSchemaError, match="not JSON"):
            RuleBook.load(path)

    def test_refuses_truncated_body(self, tmp_path):
        path = tmp_path / "book.jsonl"
        RuleBook(table_of(random_rules(random.Random(1), 5))).save(path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop last rule
        with pytest.raises(RuleBookSchemaError, match="truncated"):
            RuleBook.load(path)

    def test_refuses_out_of_table_item_id(self, tmp_path):
        path = tmp_path / "book.jsonl"
        RuleBook(table_of(random_rules(random.Random(2), 2))).save(path)
        lines = path.read_text().splitlines()
        rule = json.loads(lines[1])
        rule["antecedent_ids"] = [10_000]
        header = json.loads(lines[0])
        del header["n_rules"]  # disarm the count check; target the id check
        path.write_text(
            "\n".join([json.dumps(header), json.dumps(rule)] + lines[2:]) + "\n"
        )
        with pytest.raises(RuleBookSchemaError, match="bad rule record"):
            RuleBook.load(path)


class TestDamagedRecords:
    """Damaged rule records are refused, never coerced into other rules."""

    def _write_with(self, tmp_path, field, value):
        path = tmp_path / "book.jsonl"
        RuleBook(table_of(random_rules(random.Random(2), 3))).save(path)
        lines = path.read_text().splitlines()
        rule = json.loads(lines[2])
        rule[field] = value
        lines[2] = json.dumps(rule, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize(
        "field, value",
        [
            ("antecedent_ids", [1.9]),  # int() would truncate to id 1
            ("antecedent_ids", "12"),  # iterating would give ids 1 and 2
            ("antecedent_ids", [True]),  # a bool is not an item id
            ("consequent_ids", {"0": 1}),
            ("support", True),  # would load as 1.0
            ("support", "0.5"),  # would parse as 0.5
            ("lift", "Infinity"),
            ("conviction", None),
            ("confidence", [0.5]),
        ],
    )
    def test_refused_with_path_and_line(self, tmp_path, field, value):
        path = self._write_with(tmp_path, field, value)
        with pytest.raises(RuleBookSchemaError, match=rf"book\.jsonl:3: bad rule record: .*{field}"):
            RuleBook.load(path)

    def test_refuses_overflowing_int_metric(self, tmp_path):
        path = self._write_with(tmp_path, "support", 10**400)
        with pytest.raises(RuleBookSchemaError, match=r"book\.jsonl:3: bad rule record"):
            RuleBook.load(path)

    @pytest.mark.parametrize(
        "field, value, expected",
        [
            ("support", 1, 1.0),  # a JSON integer is a number
            ("conviction", "inf", math.inf),
            ("leverage", "-inf", -math.inf),
        ],
    )
    def test_accepts_numbers_and_non_finite_strings(self, tmp_path, field, value, expected):
        path = self._write_with(tmp_path, field, value)
        loaded = RuleBook.load(path)
        assert expected in getattr(loaded.table, field).tolist()

    def test_accepts_nan_string(self, tmp_path):
        path = self._write_with(tmp_path, "lift", "nan")
        loaded = RuleBook.load(path)
        assert np.isnan(loaded.table.lift).sum() == 1


class TestOnePassDecode:
    """All rule lines go through one ``json.loads``; what it accepts must
    be exactly what a line-by-line parse accepts."""

    def _lines(self, tmp_path, n_rules=4):
        path = tmp_path / "book.jsonl"
        RuleBook(table_of(random_rules(random.Random(5), n_rules))).save(path)
        return path, path.read_text().splitlines()

    def test_record_split_across_lines_is_refused(self, tmp_path):
        # line 2 ends inside a list and line 3 finishes it; line 4 holds
        # two records, so the line count still matches the rule count
        path, lines = self._lines(tmp_path)
        a, b = lines[1].split(", ", 1)
        two = lines[3] + ", " + lines[4]
        path.write_text("\n".join([lines[0], a, b, two]) + "\n")
        with pytest.raises(RuleBookSchemaError, match=r"book\.jsonl:2: not JSON"):
            RuleBook.load(path)

    def test_record_spread_over_a_nested_key_is_refused(self, tmp_path):
        # an extra key's nested lists could absorb the one-pass wrapper's
        # separator; the line-by-line parse still names the bad line
        path, lines = self._lines(tmp_path)
        rule = json.loads(lines[1])
        head = json.dumps({**rule, "junk": "x"})[:-1]
        split = [head + ', "pad": [[0', "0]]}"]
        two = lines[3] + ", " + lines[4]
        path.write_text("\n".join([lines[0], *split, two]) + "\n")
        with pytest.raises(RuleBookSchemaError, match=r"book\.jsonl:2: not JSON"):
            RuleBook.load(path)

    def test_hand_edited_records_load_like_their_pristine_twin(self, tmp_path):
        # extra keys, spacing, unsorted and repeated ids: all refused by
        # the one-pass path, all accepted line by line
        path, lines = self._lines(tmp_path)
        pristine = RuleBook.load(path)
        edited = [lines[0]]
        for line in lines[1:]:
            rule = json.loads(line)
            rule["antecedent_ids"] = sorted(rule["antecedent_ids"], reverse=True)
            rule["antecedent_ids"].append(rule["antecedent_ids"][0])
            rule["note"] = "hand edited"
            edited.append(json.dumps(rule, indent=None, separators=(" ,", " : ")))
        path.write_text("\n".join(edited) + "\n")
        loaded = RuleBook.load(path)
        assert loaded.table.ant_ids.tolist() == pristine.table.ant_ids.tolist()
        assert loaded.table.lift.tolist() == pristine.table.lift.tolist()

    def test_side_on_both_ends_of_a_rule_is_refused(self, tmp_path):
        path, lines = self._lines(tmp_path)
        rule = json.loads(lines[2])
        rule["consequent_ids"] = sorted(
            set(rule["consequent_ids"]) | {rule["antecedent_ids"][0]}
        )
        lines[2] = json.dumps(rule, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(RuleBookSchemaError, match=r"book\.jsonl:3: .*disjoint"):
            RuleBook.load(path)


def tied_rules(rng: random.Random, n_rules: int):
    """Rules drawn from tiny pools of sides and metrics: most adjacent
    pairs tie on (lift, confidence, support), many on the antecedent too,
    and some rules repeat."""
    vocabulary = ItemVocabulary(Item("F", f"v{k}") for k in range(5))
    antecedents = [(0,), (0, 1), (2,)]
    consequents = [(3,), (4,), (3, 4)]
    rules = []
    for _ in range(n_rules):
        ant = frozenset(rng.choice(antecedents))
        cons = frozenset(rng.choice(consequents))
        rules.append(
            AssociationRule(
                antecedent=vocabulary.items_of(ant),
                consequent=vocabulary.items_of(cons),
                antecedent_ids=ant,
                consequent_ids=cons,
                support=rng.choice([0.1, 0.2]),
                confidence=rng.choice([0.5, 1.0]),
                lift=rng.choice([1.0, 2.0, math.inf]),
                leverage=0.0,
                conviction=1.0,
            )
        )
    return rules


class TestCanonicalCheck:
    """Loading checks the order of an already canonical book instead of
    re-sorting it; any other order is still sorted."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_rules=st.integers(0, 30),
           order=st.sampled_from(["sorted", "shuffled", "one swap"]))
    def test_check_agrees_with_the_sort(self, seed, n_rules, order):
        rng = random.Random(seed)
        table = table_of(tied_rules(rng, n_rules))
        rows = list(range(len(table)))
        if order == "shuffled":
            rng.shuffle(rows)
            table = table.select(rows)
        else:
            table = table.sort_canonical()
            if order == "one swap" and len(rows) > 1:
                # a neighbour pair out of order, the rest canonical
                i = rng.randrange(len(rows) - 1)
                rows[i], rows[i + 1] = rows[i + 1], rows[i]
                table = table.select(rows)
        identity = np.array_equal(table.canonical_order(), np.arange(len(table)))
        assert table.in_canonical_order() == identity

    def test_nan_metric_is_left_to_the_sort(self):
        table = table_of(tied_rules(random.Random(2), 5)).sort_canonical()
        assert table.in_canonical_order()
        table.lift[3] = math.nan
        assert not table.in_canonical_order()

    @pytest.mark.parametrize("seed", range(5))
    def test_shuffled_book_loads_into_the_pristine_table(self, tmp_path, seed):
        pristine_path = tmp_path / "pristine.jsonl"
        RuleBook(table_of(tied_rules(random.Random(seed), 60))).save(pristine_path)
        header, *lines = pristine_path.read_text().splitlines()
        random.Random(seed).shuffle(lines)
        shuffled_path = tmp_path / "shuffled.jsonl"
        shuffled_path.write_text("\n".join([header, *lines]) + "\n")
        resaved = tmp_path / "resaved.jsonl"
        RuleBook.load(shuffled_path).save(resaved)
        assert resaved.read_bytes() == pristine_path.read_bytes()


class TestFromAnalysis:
    def test_workflow_export_hook(self, tmp_path):
        table = generate_supercloud(SuperCloudConfig(n_jobs=3000, use_scheduler=False))
        workflow = InterpretableAnalysis(supercloud_preprocessor())
        result = workflow.run(table, {"failure": "Failed"})
        book = result.to_rulebook(trace="supercloud")

        assert len(book) == len(result["failure"])
        assert book.trace == "supercloud"
        assert book.keywords == {"failure": "Failed"}
        assert book.config == result.config
        assert book.fingerprint == result.preprocess.database.fingerprint()
        assert book.n_transactions == len(result.preprocess.database)
        # ranked by lift descending, and the rule content survives the disk
        lifts = [r.lift for r in book.rules]
        assert lifts == sorted(lifts, reverse=True)
        path = tmp_path / "supercloud.jsonl"
        book.save(path)
        loaded = RuleBook.load(path)
        assert {(r.antecedent, r.consequent) for r in loaded.rules} == {
            (r.antecedent, r.consequent) for r in result["failure"].all_rules
        }

    def test_pooled_keywords_deduplicate(self):
        table = generate_supercloud(SuperCloudConfig(n_jobs=3000, use_scheduler=False))
        workflow = InterpretableAnalysis(supercloud_preprocessor())
        result = workflow.run(
            table, {"a": "Failed", "b": "Failed"}  # same keyword twice
        )
        book = result.to_rulebook()
        keys = [(r.antecedent, r.consequent) for r in book.rules]
        assert len(keys) == len(set(keys))
        assert len(book) == len(result["a"])
