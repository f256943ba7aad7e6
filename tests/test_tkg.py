import itertools
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshtkg import history, tkg
from meshtkg.tkg import (
    DatasetError,
    ParseError,
    Quadruple,
    Vocabulary,
    _normalize_timestamps,
    add_inverse_relations,
    drop_history_fraction,
    load_dataset,
    merge,
    truncate_and_resplit,
    write_dataset,
)

from conftest import group, make_vocab, quads


def write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in lines))


def make_dir(tmp_path, train, valid=(), test=(), num_entities=5, num_relations=3):
    d = tmp_path / "ds"
    d.mkdir(exist_ok=True)
    write_lines(d / "entity2id.txt", [f"e{i}\t{i}" for i in range(num_entities)])
    write_lines(d / "relation2id.txt", [f"r{i}\t{i}" for i in range(num_relations)])
    for name, rows in (("train", train), ("valid", valid), ("test", test)):
        write_lines(d / f"{name}.txt", ["\t".join(str(x) for x in row) for row in rows])
    return str(d)


# one file's whole content, and what follows its path in the refusal it draws
MALFORMED_FILES = {
    "id line without a tab": ("entity2id.txt", "e0 0\n", ParseError,
                              ":1: expected `name<TAB>id`, got 'e0 0'"),
    "id line with three fields": ("entity2id.txt", "e0\textra\t0\n", ParseError,
                                  ":1: expected `name<TAB>id`, got 'e0\\textra\\t0'"),
    "non-integer id": ("relation2id.txt", "r0\t0\nr1\tone\n", ParseError,
                       ":2: id is not an integer: 'one'"),
    "digit separator in an id": ("entity2id.txt", "e0\t0\ne1\t0_1\n", ParseError,
                                 ":2: id is not an integer: '0_1'"),
    "non-ASCII digit in an id": ("entity2id.txt", "e0\t0\ne1\t1\ne2\t\u0662\n", ParseError,
                                 ":3: id is not an integer: '\u0662'"),
    "decimal id": ("relation2id.txt", "r0\t1.0\n", ParseError,
                   ":1: id is not an integer: '1.0'"),
    "empty id": ("relation2id.txt", "r0\t0\nr1\t\n", ParseError,
                 ":2: id is not an integer: ''"),
    "gap in the ids": ("entity2id.txt", "e0\t0\ne2\t2\n", DatasetError,
                       ": ids are not dense integers 0..1"),
    "repeated id": ("entity2id.txt", "e0\t0\ne1\t0\n", DatasetError,
                    ": ids are not dense integers 0..1"),
    "negative id": ("relation2id.txt", "r0\t-1\n", DatasetError,
                    ": ids are not dense integers 0..0"),
    "fact with 3 fields": ("train.txt", "0\t0\t1\n", ParseError,
                           ":1: expected 4 tab-separated fields, got 3"),
    "non-integer fact field": ("valid.txt", "0\t0\tx\t1\n", ParseError,
                               ":1: non-integer field in ['0', '0', 'x', '1']"),
    "object id out of range": ("test.txt", "0\t0\t5\t2\n", ParseError,
                               ":1: object id 5 outside 0..4"),
    "relation id out of range": ("train.txt", "0\t0\t1\t0\n0\t3\t1\t1\n", ParseError,
                                 ":2: relation id 3 outside 0..2"),
    "blank lines before a bad line": ("train.txt", "0\t0\t1\t0\n\n\r\n\r0\t0\tx\t1\n", ParseError,
                                      ":5: non-integer field in ['0', '0', 'x', '1']"),
    "decimal point": ("train.txt", "3.0\t0\t1\t0\n", ParseError,
                      ":1: non-integer field in ['3.0', '0', '1', '0']"),
    "exponent": ("valid.txt", "0\t1e2\t1\t0\n", ParseError,
                 ":1: non-integer field in ['0', '1e2', '1', '0']"),
    "hexadecimal": ("test.txt", "0\t0\t0x1\t0\n", ParseError,
                    ":1: non-integer field in ['0', '0', '0x1', '0']"),
    "empty field": ("train.txt", "0\t0\t\t0\n", ParseError,
                    ":1: non-integer field in ['0', '0', '', '0']"),
    "digit separator": ("train.txt", "0\t0\t1_0\t0\n", ParseError,
                        ":1: non-integer field in ['0', '0', '1_0', '0']"),
    "non-ASCII digit": ("train.txt", "0\t0\t\u0663\t0\n", ParseError,
                        ":1: non-integer field in ['0', '0', '\u0663', '0']"),
    # numpy's int64 parser reads this letter as the number 462
    "letter numpy reads as digits": ("train.txt", "0\t0\t1\t\u01fe\n", ParseError,
                                     ":1: non-integer field in ['0', '0', '1', '\u01fe']"),
    "two signs": ("train.txt", "0\t+-1\t1\t0\n", ParseError,
                  ":1: non-integer field in ['0', '+-1', '1', '0']"),
    "space inside a field": ("train.txt", "0\t0\t1 2\t0\n", ParseError,
                             ":1: non-integer field in ['0', '0', '1 2', '0']"),
    "whitespace-only line": ("train.txt", "0\t0\t1\t0\n \n", ParseError,
                             ":2: expected 4 tab-separated fields, got 1"),
    "subject beyond int64": ("train.txt", "99999999999999999999\t0\t1\t0\n", ParseError,
                             ":1: subject id 99999999999999999999 outside 0..4"),
    "relation below int64": ("train.txt", "0\t-99999999999999999999\t1\t0\n", ParseError,
                             ":1: relation id -99999999999999999999 outside 0..2"),
    "object beyond int64": ("train.txt", "0\t0\t9223372036854775808\t0\n", ParseError,
                            ":1: object id 9223372036854775808 outside 0..4"),
    "two refusals in one line": ("train.txt", "9\t0\t7\t0\n", ParseError,
                                 ":1: subject id 9 outside 0..4"),
    "refusals on two lines": ("train.txt", "0\t0\t1\t5\n0\t0\t1\t4\n9\t0\t1\t6\n", ParseError,
                              ":2: timestamp 4 decreases after 5"),
    "range refusal before a later bad field": ("train.txt", "0\t0\t1\t5\n0\t0\t1\t4\n0\tx\t0\t0\n",
                                               ParseError, ":2: timestamp 4 decreases after 5"),
    "bad field before a later range refusal": ("train.txt", "0\t0\t1\t5\n0\tx\t1\t6\n9\t0\t1\t4\n",
                                               ParseError, ":2: non-integer field in ['0', 'x', '1', '6']"),
}


class TestLoadDataset:
    @pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
    def test_malformed_file_is_refused(self, tmp_path, case):
        name, text, error, message = MALFORMED_FILES[case]
        d = make_dir(tmp_path, [(0, 0, 1, 0)])
        path = os.path.join(d, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        with pytest.raises(error) as exc:
            load_dataset(d)
        assert str(exc.value) == path + message

    def test_signed_and_padded_ids_are_read(self, tmp_path):
        d = make_dir(tmp_path, [(0, 0, 1, 0)])
        write_lines(os.path.join(d, "entity2id.txt"),
                    ["e3\t 3", "e0\t0", "e4\t+4 ", "e1\t 1", "e2\t+2"])
        assert load_dataset(d)[0].entity_names == ["e0", "e1", "e2", "e3", "e4"]

    def test_fixture_snapshot_sizes(self, tmp_path):
        # 6 facts over timestamps {0, 1, 2} with sizes 2 / 3 / 1
        rows = [
            (0, 0, 1, 0),
            (1, 1, 2, 0),
            (2, 0, 3, 1),
            (3, 1, 4, 1),
            (4, 2, 0, 1),
            (0, 2, 2, 2),
        ]
        d = make_dir(tmp_path, rows)
        vocab, train, valid, test = load_dataset(d)
        assert [len(s) for s in train.snapshots()] == [2, 3, 1]
        assert vocab.num_entities == 5
        assert vocab.num_relations == 3
        assert vocab.num_timestamps == 3
        assert valid.num_facts == 0 and test.num_facts == 0

    def test_empty_train(self, tmp_path):
        d = make_dir(tmp_path, [])
        _, train, _, _ = load_dataset(d)
        assert train.snapshots() == []
        assert train.num_facts == 0

    def test_timestamp_normalization_by_step(self, tmp_path):
        # hourly-style raw stamps 24/48/96 normalize to dense 0/1/2
        rows = [(0, 0, 1, 24), (1, 0, 2, 48), (2, 0, 3, 96)]
        d = make_dir(tmp_path, rows)
        vocab, train, _, _ = load_dataset(d)
        assert sorted(q.t for q in quads(train)) == [0, 1, 2]
        assert vocab.num_timestamps == 3

    @given(st.lists(st.lists(st.integers(0, tkg.INT64_MAX)
                             | st.sampled_from([0, 1, tkg.INT64_MAX - 1, tkg.INT64_MAX]),
                             max_size=12), min_size=1, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_timestamps_become_their_dense_rank(self, raw):
        """Any raw times, gaps up to 2**63 - 1 included, map to their rank
        among the distinct times of every split; T counts those times."""
        splits = {i: np.array([(0, 0, 0, t) for t in times], dtype=np.int64).reshape(-1, 4)
                  for i, times in enumerate(raw)}
        levels = sorted({t for times in raw for t in times})
        assert _normalize_timestamps(splits) == len(levels)
        assert [rows[:, 3].tolist() for rows in splits.values()] == [
            [levels.index(t) for t in times] for times in raw]

    def test_shared_time_axis_across_splits(self, tmp_path):
        d = make_dir(tmp_path, [(0, 0, 1, 0)], valid=[(1, 0, 2, 5)], test=[(2, 0, 3, 10)])
        vocab, train, valid, test = load_dataset(d)
        assert quads(train)[0].t == 0
        assert quads(valid)[0].t == 1
        assert quads(test)[0].t == 2
        assert vocab.num_timestamps == 3

    def test_trailing_columns_ignored(self, tmp_path):
        d = tmp_path / "ds5"
        d.mkdir()
        write_lines(d / "entity2id.txt", ["a\t0", "b\t1"])
        write_lines(d / "relation2id.txt", ["r\t0"])
        write_lines(d / "train.txt", ["0\t0\t1\t0\t0", "1\t0\t0\t1\t0", "1\t0\t0\t2\tx\t3.5",
                                      "0\t0\t1\t3\t", "0\t0\t1\t4\t# \u00e9\x85\u2028 \"q"])
        write_lines(d / "valid.txt", [])
        write_lines(d / "test.txt", [])
        _, train, _, _ = load_dataset(str(d))
        assert train.array.tolist() == [[0, 0, 1, 0], [1, 0, 0, 1], [1, 0, 0, 2], [0, 0, 1, 3],
                                        [0, 0, 1, 4]]

    @pytest.mark.parametrize("field", [" 3", "+3", "3 ", "3\x0c", "\u00a03\u3000", "-0", "003"])
    def test_integer_fields_read_as_int_reads_them(self, tmp_path, field):
        """Whitespace around a field, a sign and leading zeros are read as
        int() reads them."""
        d = make_dir(tmp_path, [(0, 0, 1, 0), (field, 0, field, field)])
        _, train, _, _ = load_dataset(d)
        value = int(field)
        assert train.array.tolist() == [[0, 0, 1, 0], [value, 0, value, int(value > 0)]]

    def test_numpy_reads_plain_text_as_the_fact_rule(self):
        """A text of `tkg._PLAIN`'s characters alone skips the rule's search
        and is read by numpy: over every such line of two set fields and up
        to 5 more characters, numpy accepts what `_FACT_LINE` accepts, with
        int()'s values."""
        for size in range(6):
            for chars in itertools.product("09+- \t", repeat=size):
                line = "1\t2\t" + "".join(chars)
                rows = tkg._int_rows(line)
                assert (rows is not None) == bool(tkg._FACT_LINE.fullmatch(line)), repr(line)
                if rows is not None:
                    assert rows.tolist() == [[int(f) for f in line.split("\t")[:4]]], repr(line)

    @pytest.mark.parametrize("ending", ["\r\n", "\r"])
    def test_line_endings_read_as_newlines(self, tmp_path, ending):
        rows = [(0, 0, 1, 0), (1, 2, 3, 4), (4, 1, 0, 4)]
        want = load_dataset(make_dir(tmp_path, rows, rows[:1], rows[1:]))
        (tmp_path / "other").mkdir()
        d = make_dir(tmp_path / "other", rows, rows[:1], rows[1:])
        for name in ("train.txt", "valid.txt", "test.txt"):
            path = os.path.join(d, name)
            with open(path, "rb") as fh:
                data = fh.read()
            with open(path, "wb") as fh:
                fh.write(data.replace(b"\n", ending.encode()))
        got = load_dataset(d)
        assert got[0] == want[0]
        for a, b in zip(got[1:], want[1:]):
            assert np.array_equal(a.array, b.array)

    @pytest.mark.parametrize("bad, message", [
        ("0\t0\t9\t49999", "object id 9 outside 0..4"),
        ("0\t0\t1\tx", "non-integer field in ['0', '0', '1', 'x']"),
        ("0\t0\t1\t99999999999999999999", "timestamp 99999999999999999999 above the int64 "
                                          f"maximum {tkg.INT64_MAX}"),
    ])
    def test_bad_line_deep_in_a_file_is_named(self, tmp_path, bad, message):
        d = make_dir(tmp_path, [])
        path = os.path.join(d, "train.txt")
        write_lines(path, [f"{i % 5}\t{i % 3}\t{(i + 1) % 5}\t{i}" for i in range(49_999)] + [bad])
        with pytest.raises(ParseError) as exc:
            load_dataset(d)
        assert str(exc.value) == f"{path}:50000: {message}"

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_fact_lines_read_back_and_a_corrupt_field_is_named(self, data, tmp_path_factory):
        """Valid rows, written with random padding, trailing columns, blank
        lines and line breaks, read back exactly; one field made non-integer
        on a random line is refused at that line."""
        fact = st.tuples(st.integers(0, 4), st.integers(0, 2), st.integers(0, 4),
                         st.integers(0, 9))
        rows = sorted(data.draw(st.lists(fact, min_size=1, max_size=20)), key=lambda row: row[3])
        breaks = st.sampled_from(["\n", "\r\n", "\r"])
        lines = []
        for row in rows:
            fields = [data.draw(st.sampled_from(["{}", " {}", "+{}", "0{}", "{} "])).format(v)
                      for v in row]
            fields += data.draw(st.lists(st.sampled_from(["x", "", "1.5", "-1"]), max_size=2))
            lines.append(fields)
        blanks = [data.draw(st.lists(breaks, max_size=2)) for _ in lines]
        endings = [data.draw(breaks) for _ in lines]

        def text():
            return "".join("".join(before) + "\t".join(fields) + end
                           for before, fields, end in zip(blanks, lines, endings))

        d = make_dir(tmp_path_factory.mktemp("facts"), [])
        path = os.path.join(d, "train.txt")
        with open(path, "wb") as fh:
            fh.write(text().encode())
        levels = sorted({row[3] for row in rows})
        _, train, _, _ = load_dataset(d)
        assert train.array.tolist() == [[s, r, o, levels.index(t)] for s, r, o, t in rows]

        k = data.draw(st.integers(0, len(lines) - 1))
        lines[k][data.draw(st.integers(0, 3))] = data.draw(
            st.sampled_from(["x", "", "3.0", "1e2", "0x1", "1_0", "\u0663", "- 1", "1-"]))
        with open(path, "wb") as fh:
            fh.write(text().encode())
        # universal newlines: `\r\n`, `\r` and `\n` each end one line
        head = "".join("".join(before) + "\t".join(fields) + end
                       for before, fields, end in zip(blanks[:k], lines[:k], endings[:k]))
        lineno = len(re.split(r"\r\n|\r|\n", head + "".join(blanks[k])))
        with pytest.raises(ParseError) as exc:
            load_dataset(d)
        assert str(exc.value) == f"{path}:{lineno}: non-integer field in {lines[k][:4]!r}"

    def test_missing_file_names_it(self, tmp_path):
        d = make_dir(tmp_path, [(0, 0, 1, 0)])
        os.remove(os.path.join(d, "valid.txt"))
        with pytest.raises(DatasetError, match="valid.txt"):
            load_dataset(d)

    def test_entity_out_of_range_reports_line(self, tmp_path):
        d = make_dir(tmp_path, [(0, 0, 1, 0), (99, 0, 1, 1)])
        with pytest.raises(ParseError, match="train.txt:2"):
            load_dataset(d)

    def test_duplicate_names_rejected(self, tmp_path):
        d = tmp_path / "dsdup"
        d.mkdir()
        write_lines(d / "entity2id.txt", ["same\t0", "same\t1"])
        write_lines(d / "relation2id.txt", ["r\t0"])
        for name in ("train", "valid", "test"):
            write_lines(d / f"{name}.txt", [])
        with pytest.raises(DatasetError, match="duplicate"):
            load_dataset(str(d))

    def test_duplicate_name_among_icews18_many_entities(self, tmp_path):
        """ICEWS18's 23,033 entities, one name given twice: the report names
        it (it took 12 s when each name was counted over the whole list)."""
        d = make_dir(tmp_path, [(0, 0, 1, 0)], num_entities=23_033)
        path = os.path.join(d, "entity2id.txt")
        write_lines(path, [f"e{i}\t{i}" for i in range(23_032)] + ["e5\t23032"])
        with pytest.raises(DatasetError) as exc:
            load_dataset(d)
        assert str(exc.value) == f"{path}: duplicate names ['e5']"

    @pytest.mark.parametrize("name", ["entity2id.txt", "relation2id.txt", "train.txt",
                                      "valid.txt", "test.txt"])
    def test_non_utf8_byte_reports_file_and_line(self, tmp_path, name):
        d = make_dir(tmp_path, [(0, 0, 1, 0)], [(0, 0, 1, 1)], [(0, 0, 1, 2)])
        with open(os.path.join(d, name), "ab") as fh:
            fh.write(b"e\xff\t9\n")
        with pytest.raises(ParseError, match=rf"{name}:\d+: byte 0xff is not UTF-8"):
            load_dataset(d)

    @pytest.mark.parametrize("kind, num_entities, num_relations, limit",
                             [("entity", 9, 4, 8), ("relation", 8, 5, 4)])
    def test_vocabulary_beyond_packed_keys(self, tmp_path, monkeypatch, kind, num_entities,
                                           num_relations, limit):
        # 3-bit id fields: 8 entities, and 4 relations whose inverses take ids 4..7
        monkeypatch.setattr(tkg, "ID_BITS", 3)
        d = make_dir(tmp_path, [(0, 0, 1, 0)], num_entities=num_entities,
                     num_relations=num_relations)
        path = os.path.join(d, f"{kind}2id.txt")
        count = num_entities if kind == "entity" else num_relations
        with pytest.raises(DatasetError) as exc:
            load_dataset(d)
        assert str(exc.value) == f"{path}: {count} {kind} ids, above the limit of {limit}"

    def test_vocabulary_at_packed_key_limit_loads(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tkg, "ID_BITS", 3)
        vocab, *_ = load_dataset(make_dir(tmp_path, [(7, 3, 0, 0)], num_entities=8,
                                          num_relations=4))
        assert (vocab.num_entities, vocab.num_relations) == (8, 4)

    def test_packed_key_limits_fit_history_keys(self):
        # the largest entity id and the largest inverse relation id pack
        assert tkg.ID_BITS is history.ID_BITS
        largest = (1 << tkg.ID_BITS) - 1
        num_relations = 1 << (tkg.ID_BITS - 1)
        history.pack(largest, num_relations + num_relations - 1, largest)

    def test_negative_timestamp(self, tmp_path):
        d = make_dir(tmp_path, [(0, 0, 1, -3)])
        with pytest.raises(ParseError, match="negative"):
            load_dataset(d)

    @pytest.mark.parametrize("t", [2**63, 99999999999999999999])
    def test_timestamp_above_int64_max(self, tmp_path, t):
        d = make_dir(tmp_path, [(0, 0, 1, 0)], [], [(0, 0, 1, t)])
        with pytest.raises(ParseError, match=r"test\.txt:1: timestamp .* int64 maximum"):
            load_dataset(d)

    def test_largest_int64_timestamp_loads(self, tmp_path):
        d = make_dir(tmp_path, [(0, 0, 1, 0)], [], [(0, 0, 1, 2**63 - 1)])
        _, _, _, test = load_dataset(d)
        assert test.num_facts == 1

    def test_non_monotone_timestamp(self, tmp_path):
        d = make_dir(tmp_path, [(0, 0, 1, 5), (0, 0, 1, 2)])
        with pytest.raises(ParseError, match="decreases"):
            load_dataset(d)

    def test_roundtrip_multiset(self, tmp_path, np_gen):
        from conftest import random_facts

        facts = random_facts(np_gen, 60, 5, 3, 8)
        train = group(facts, "train")
        valid = group(random_facts(np_gen, 10, 5, 3, 8), "valid")
        test = group(random_facts(np_gen, 10, 5, 3, 8), "test")
        vocab = make_vocab(5, 3, 8)
        out = tmp_path / "rt"
        write_dataset(str(out), vocab, train, valid, test)
        _, train2, valid2, test2 = load_dataset(str(out))
        for a, b in ((train, train2), (valid, valid2), (test, test2)):
            assert sorted(quads(a)) == sorted(quads(b))

    def test_snapshot_partition(self, tmp_path, np_gen):
        from conftest import random_facts

        facts = random_facts(np_gen, 80, 6, 2, 10)
        tkg = group(facts)
        assert sorted(quads(tkg)) == sorted(Quadruple(*f) for f in facts)
        for t, snap in enumerate(tkg.snapshots()):
            assert np.all(snap[:, 3] == t)


# names from a wide alphabet: any code point, lone surrogates included, and
# the characters a line-based reader could take for a separator
NAMES = st.text(alphabet=st.one_of(st.characters(), st.characters(categories=["Cs"]),
                                   st.sampled_from("\t\n\r\x0b\x0c\x1c\x85\u2028 \0")),
                max_size=4)


def unwritable(names) -> bool:
    """Whether write_dataset must refuse a kind's names: one holds a tab, a
    line break or a surrogate, or one is repeated."""
    return len(set(names)) != len(names) or any(
        c in "\t\n\r" or 0xD800 <= ord(c) <= 0xDFFF for name in names for c in name)


class TestWriteDataset:
    @pytest.mark.parametrize("entities, relations, message", [
        (["a\tb", "c"], ["r"], "entity name 'a\\tb' holds a tab"),
        (["a\nb", "c"], ["r"], "entity name 'a\\nb' holds a tab, a line break"),
        (["a", "c"], ["r\r"], "relation name 'r\\r' holds a tab, a line break"),
        (["a\ud800", "c"], ["r"], "entity name 'a\\ud800' holds a tab, a line break or a "
                                   "surrogate"),
        (["a", "a"], ["r"], "entity name 'a' is repeated"),
        (["a", "c"], ["r", "r"], "relation name 'r' is repeated"),
    ], ids=["tab", "newline", "carriage_return", "surrogate", "repeated_entity",
            "repeated_relation"])
    def test_unreadable_name_refused_before_any_file(self, tmp_path, entities, relations,
                                                     message):
        """Names the reader would misread (a tab splits the line) or refuse
        (a line break, a repeat) are refused, naming the kind and the name."""
        splits = (group([(0, 0, 1, 0)], "train"), group([(1, 0, 0, 1)], "valid"),
                  group([(0, 0, 1, 2)], "test"))
        with pytest.raises(ValueError, match=re.escape(message)):
            write_dataset(str(tmp_path / "ds"), Vocabulary(entities, relations, 3), *splits)
        assert not (tmp_path / "ds").exists()

    @settings(max_examples=150, deadline=None)
    @given(entities=st.lists(NAMES, min_size=1, max_size=4),
           relations=st.lists(NAMES, min_size=1, max_size=3), data=st.data())
    def test_round_trip(self, entities, relations, data, tmp_path_factory):
        """Any vocabulary the writer accepts, with facts whose timestamps are
        their dense rank over the splits (the reader renumbers any others),
        loads back equal; any other is refused before a file is written."""
        fact = st.tuples(st.integers(0, len(entities) - 1), st.integers(0, len(relations) - 1),
                         st.integers(0, len(entities) - 1), st.integers(0, 3))
        raw = [data.draw(st.lists(fact, max_size=5)) for _ in range(3)]
        levels = sorted({f[3] for facts in raw for f in facts})
        splits = [group([(s, r, o, levels.index(t)) for s, r, o, t in facts], split)
                  for facts, split in zip(raw, ("train", "valid", "test"))]
        vocab = Vocabulary(entities, relations, len(levels))
        directory = tmp_path_factory.mktemp("rt") / "ds"
        if unwritable(entities) or unwritable(relations):
            with pytest.raises(ValueError):
                write_dataset(str(directory), vocab, *splits)
            assert not directory.exists()
            return
        write_dataset(str(directory), vocab, *splits)
        loaded, *tkgs = load_dataset(str(directory))
        assert loaded == vocab
        for want, got in zip(splits, tkgs):
            assert got.split == want.split and np.array_equal(got.array, want.array)

    @pytest.mark.parametrize("relabel", [
        lambda train, valid, test: (train, merge(valid, group([(1, 1, 0, 1)], "valid")), test),
        lambda train, valid, test: (group(train.array, "test"), valid, test),
    ], ids=["merged_as_valid", "test_label_as_train"])
    def test_files_are_named_by_role_not_by_label(self, tmp_path, relabel):
        """Each graph is written to the fact file of the argument it came in
        as, whatever its `split` label, and loads back in that role: a
        merged graph passed as valid, or a graph labelled test passed as
        train, loses no split."""
        splits = relabel(group([(0, 0, 1, 0)], "train"), group([(1, 0, 0, 1)], "valid"),
                         group([(0, 1, 1, 2)], "test"))
        directory = str(tmp_path / "ds")
        write_dataset(directory, make_vocab(2, 2, 3), *splits)
        assert sorted(os.listdir(directory)) == ["entity2id.txt", "relation2id.txt", "test.txt",
                                                 "train.txt", "valid.txt"]
        _, *loaded = load_dataset(directory)
        for role, want, got in zip(("train", "valid", "test"), splits, loaded, strict=True):
            assert got.split == role and np.array_equal(got.array, want.array)


class TestInverseRelations:
    def test_single_fact_mirror(self):
        aug = add_inverse_relations(group([(0, 1, 2, 5)]), 3)
        assert aug.snapshots()[5].tolist() == [[0, 1, 2, 5], [2, 4, 0, 5]]

    def test_empty_graph(self):
        aug = add_inverse_relations(group([]), 2)
        assert aug.num_facts == 0

    def test_involution_on_fixture(self, np_gen):
        from conftest import random_facts

        facts = random_facts(np_gen, 10, 6, 4, 5)
        aug = add_inverse_relations(group(facts), 4)
        assert aug.num_facts == 20
        originals = sorted(Quadruple(*f) for f in facts)
        mirrors = [q for q in quads(aug) if q.r >= 4]
        remapped = sorted(Quadruple(q.o, q.r - 4, q.s, q.t) for q in mirrors)
        assert remapped == originals

    def test_double_application_rejected(self):
        aug = add_inverse_relations(group([(0, 0, 1, 0)]), 2)
        with pytest.raises(ValueError, match="twice"):
            add_inverse_relations(aug, 2)


class TestDropHistory:
    def test_fraction_zero_identity(self):
        tkg = group([(0, 0, 1, 0), (1, 0, 2, 1)])
        out = drop_history_fraction(tkg, 0.0, seed=1)
        assert list(quads(out)) == list(quads(tkg))

    def test_fraction_one_empties(self):
        tkg = group([(0, 0, 1, 0), (1, 0, 2, 1)])
        out = drop_history_fraction(tkg, 1.0, seed=1)
        assert out.num_facts == 0

    def test_half_deterministic(self, np_gen):
        from conftest import random_facts

        tkg = group(random_facts(np_gen, 100, 8, 3, 12))
        a = drop_history_fraction(tkg, 0.5, seed=7)
        b = drop_history_fraction(tkg, 0.5, seed=7)
        assert a.num_facts == 50
        assert list(quads(a)) == list(quads(b))
        c = drop_history_fraction(tkg, 0.5, seed=8)
        assert list(quads(c)) != list(quads(a))

    def test_fraction_out_of_range(self):
        with pytest.raises(ValueError):
            drop_history_fraction(group([(0, 0, 1, 0)]), 1.5, seed=0)


def test_merge_unions_snapshots():
    a = group([(0, 0, 1, 0), (1, 0, 2, 2)], "train")
    b = group([(2, 0, 3, 1)], "valid")
    merged = merge(a, b)
    assert merged.num_facts == 3
    assert [len(s) for s in merged.snapshots()] == [1, 1, 1]


def test_row_order_within_timestamp():
    # batches, dropout draws and ranks follow this order, so it must not move
    a = group([(0, 0, 1, 1), (1, 1, 2, 0), (2, 0, 3, 1)], "train")
    aug = add_inverse_relations(a, 2)
    assert aug.array.tolist() == [
        [1, 1, 2, 0], [2, 3, 1, 0],                            # t=0: original, mirror
        [0, 0, 1, 1], [2, 0, 3, 1], [1, 2, 0, 1], [3, 2, 2, 1],  # t=1: originals, mirrors
    ]
    b = group([(4, 1, 0, 1), (3, 0, 4, 0)], "valid")
    assert merge(b, a).array.tolist() == [
        [3, 0, 4, 0], [1, 1, 2, 0],                            # t=0: b's rows, then a's
        [4, 1, 0, 1], [0, 0, 1, 1], [2, 0, 3, 1],
    ]


class TestTruncateAndResplit:
    @staticmethod
    def stream(num_timestamps):
        facts = [(0, 0, 1, t) for t in range(num_timestamps)] + [(1, 0, 2, 0)]
        return group(facts, "train"), group([], "valid"), group([], "test")

    @pytest.mark.parametrize("num_timestamps", [1, 2])
    def test_too_few_timestamps_rejected(self, num_timestamps):
        with pytest.raises(DatasetError, match="at least 3 timestamps"):
            truncate_and_resplit(make_vocab(3, 1), *self.stream(num_timestamps), 3)

    @pytest.mark.parametrize("num_timestamps", [3, 4, 5, 6, 10, 11])
    def test_three_nonempty_consecutive_splits(self, num_timestamps):
        vocab, *splits = truncate_and_resplit(
            make_vocab(3, 1), *self.stream(num_timestamps), 100)
        assert vocab.num_timestamps == num_timestamps
        times = [sorted(set(split.array[:, 3].tolist())) for split in splits]
        assert all(times), f"empty split: {times}"
        assert times[0] + times[1] + times[2] == list(range(num_timestamps))
