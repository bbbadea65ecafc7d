import contextlib
import functools
import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import floerforge
from floerforge import cfk, cli
from floerforge.cli import main
from floerforge.corpus import canonical_json, corpus_builders, corpus_dir, load_complex, write_corpus


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_surgery_trefoil_json(capsys):
    code, out, _ = run(capsys, "surgery", "--complex", "trefoil", "--n", "0")
    assert code == 0
    data = json.loads(out)
    assert data["decomposition"]["towers"] == ["-3/2", "-1/2"]
    assert data["decomposition"]["torsion"] == []


def test_surgery_output_is_byte_stable(capsys):
    _, first, _ = run(capsys, "surgery", "--complex", "figure8", "--n", "0")
    _, second, _ = run(capsys, "surgery", "--complex", "figure8", "--n", "0")
    assert first == second


def test_surgery_table_descending(capsys):
    code, out, _ = run(capsys, "surgery", "--complex", "figure8", "--n", "0", "--format", "table")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split() == ["grading", "towers", "reduced"]
    gradings = [line.split()[0] for line in lines[1:]]
    assert gradings == ["1/2", "-1/2"]


def test_cfk_unknot_table(capsys):
    code, out, _ = run(capsys, "cfk", "--complex", "unknot")
    assert code == 0
    data = json.loads(out)
    assert data["hfk_hat"] == {"(0,0)": 1}
    assert data["numerics"] == {"genus": 0, "tau": 0}


def test_double_pipeline_round_trip(tmp_path, capsys):
    from floerforge.cfk import KnotComplex
    from floerforge.whitehead import box_parameters

    # Each double: boxes at k spawn boxes at k and k - 1 ("+") or k and
    # k + 1 ("-"), squared; the first double of K3 has corners 1 .. -2
    # ("+") or 2 .. -1 ("-").
    for sign, iterations, boxes, top in [("+", 2, 32, 1), ("-", 2, 32, 3), ("+", 3, 128, 1)]:
        out_file = tmp_path / "double.json"
        code, _, _ = run(
            capsys, "double", "--complex", "k3", "--sign", sign,
            "--iterations", str(iterations), "--out", str(out_file),
        )
        assert code == 0
        doubled = KnotComplex.from_json(json.loads(out_file.read_text()))
        assert doubled.name == f"Wh^{iterations}(K3)"
        params = box_parameters(doubled)
        assert (len(params), max(params)) == (boxes, top)


def test_endfloer_command(capsys):
    code, out, _ = run(capsys, "endfloer", "--knot", "k3", "--handle", "ch+")
    assert code == 0
    data = json.loads(out)
    assert data["max_nontrivial_grading"] == "0"
    assert data["per_grading"]["0"] == {"rank": "inf", "tag": "exact"}


def test_endfloer_negative_handle(capsys):
    code, out, _ = run(capsys, "endfloer", "--knot", "k3", "--handle", "ch-")
    assert code == 0
    assert json.loads(out)["vanishes"] is True


def test_distinguish_command(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(json.dumps({"knot": "k3", "handle": "ch+"}))
    b.write_text(json.dumps({"knot": "k5", "handle": "ch+"}))
    code, out, _ = run(capsys, "distinguish", "--a", str(a), "--b", str(b))
    assert code == 0
    data = json.loads(out)
    assert data["distinct"] is True


def test_distinguish_sum_operand(tmp_path, capsys):
    a = tmp_path / "a.json"
    a.write_text(
        json.dumps(
            {
                "summands": [
                    {"knot": "k3", "handle": "ch+"},
                    {"knot": "k3", "handle": "ch+", "orientation": "-"},
                ]
            }
        )
    )
    b = tmp_path / "b.json"
    b.write_text(json.dumps({"knot": "k3", "handle": "ch+"}))
    code, out, _ = run(capsys, "distinguish", "--a", str(a), "--b", str(b))
    assert code == 0
    assert json.loads(out)["distinct"] is True


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "surgery", "--complex", "no-such-file.json", "--n", "0")
    assert code == 2
    assert "no-such-file" in err


def test_deeply_nested_json_is_usage_error(tmp_path, capsys):
    deep, piece = tmp_path / "deep.json", tmp_path / "piece.json"
    deep.write_text("[" * 200_000)
    piece.write_text('{"summands": ' + "[" * 200_000 + "]" * 200_000 + "}")
    for argv in (["cfk", "--complex", str(deep)], ["distinguish", "--a", str(piece), "--b", str(piece)]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot parse ") and "recursion" in err and err.count("\n") == 1


def test_undecodable_piece_file_is_usage_error(tmp_path, capsys):
    # Bytes that are not UTF-8, and an integer past Python's digit limit,
    # end as a malformed complex file does: exit 2, one line naming the file.
    ok, bad, huge = tmp_path / "ok.json", tmp_path / "bad.json", tmp_path / "huge.json"
    ok.write_text(json.dumps({"knot": "k3"}))
    bad.write_bytes(b'\xff\xfe{"knot": "k3"}')
    huge.write_text('{"knot": "k3", "handle": ' + "9" * 5000 + "}")
    for path, why in ((bad, "can't decode byte 0xff"), (huge, "4300 digits")):
        for argv in (["--a", str(path), "--b", str(ok)], ["--a", str(ok), "--b", str(path)]):
            code, out, err = run(capsys, "distinguish", *argv)
            assert (code, out) == (2, "")
            assert err.startswith(f"error: cannot parse {str(path)!r}: ") and why in err and err.count("\n") == 1


def test_unwritable_out_is_usage_error(tmp_path, capsys):
    for target in (tmp_path, tmp_path / "missing" / "x.json"):
        code, out, err = run(capsys, "cfk", "--complex", "k3", "--out", str(target))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {str(target)!r}: ") and err.count("\n") == 1


def test_corrupt_file_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "surgery", "--complex", str(bad), "--n", "0")
    assert code == 2


def test_domain_error_exit_code(tmp_path, capsys):
    # A complex without a flip cannot be surgered: domain error, exit 1.
    from floerforge.cfk import figure8, KnotComplex

    naked = KnotComplex(figure8().base, figure8().alexander, None, figure8().ambient)
    path = tmp_path / "naked.json"
    path.write_text(canonical_json(naked.to_json()))
    code, _, err = run(capsys, "surgery", "--complex", str(path), "--n", "0")
    assert code == 1
    assert "flip" in err


def test_unknown_flag_is_usage_error(capsys):
    assert main(["surgery", "--complex", "unknot", "--wat"]) == 2


def test_verify_filter_runs_subset(capsys):
    code, out, _ = run(capsys, "verify", "--filter", "surgery")
    assert code == 0
    assert "1.unknot" in out
    assert "6.max.n3" not in out


def test_corpus_env_override(tmp_path, monkeypatch, capsys):
    write_corpus(tmp_path)
    # Corrupt one entry; loading through the override must fail cleanly.
    (tmp_path / "trefoil.json").write_text("{}")
    monkeypatch.setenv("FLOERFORGE_CORPUS", str(tmp_path))
    code, _, err = run(capsys, "surgery", "--complex", "trefoil", "--n", "0")
    assert code == 2


def test_corpus_override_read_at_each_call(tmp_path, monkeypatch):
    # The bundled directory is resolved once per process; the override is
    # still read at every call, also after a call made without it.
    monkeypatch.delenv("FLOERFORGE_CORPUS", raising=False)
    bundled, trefoil = corpus_dir(), load_complex("trefoil").to_json()
    figure8 = (bundled / "figure8.json").read_text(encoding="utf-8")
    assert json.loads(figure8) != trefoil
    (tmp_path / "trefoil.json").write_text(figure8, encoding="utf-8")
    monkeypatch.setenv("FLOERFORGE_CORPUS", str(tmp_path))
    assert corpus_dir() == tmp_path
    assert load_complex("trefoil").to_json() == json.loads(figure8)
    monkeypatch.delenv("FLOERFORGE_CORPUS")
    assert corpus_dir() == bundled and load_complex("trefoil").to_json() == trefoil


def test_verify_corpus_row_catches_corruption(tmp_path, monkeypatch, capsys):
    write_corpus(tmp_path)
    (tmp_path / "trefoil.json").write_text("{not json")
    monkeypatch.setenv("FLOERFORGE_CORPUS", str(tmp_path))
    code, out, _ = run(capsys, "verify", "--filter", "7.corpus")
    assert code == 1
    assert "trefoil" in out


def test_verify_corpus_row_passes_on_shipped_files(capsys):
    code, out, _ = run(capsys, "verify", "--filter", "7.corpus")
    assert code == 0
    assert "7.corpus" in out


def test_corpus_files_match_builders():
    # Shipped corpus bytes equal a fresh regeneration of every builder.
    directory = corpus_dir()
    for name, build in corpus_builders().items():
        path = directory / f"{name}.json"
        assert path.is_file(), f"missing corpus file {name}"
        assert path.read_text(encoding="utf-8") == canonical_json(build().to_json())


class _Dict(dict):
    pass


class _Str(str):
    pass


_TEXT = st.text(st.one_of(st.characters(), st.sampled_from('"\\/\n\t\x00\x1f\x7f\u2028\U0001f600')))
_KEYS = st.one_of(_TEXT, _TEXT.map(_Str), st.integers(), st.floats(), st.booleans(), st.none())
_RECORD_KEYS = st.text(st.sampled_from('ab%"\\\n\u00e9'), max_size=3)


@st.composite
def _record_lists(draw, inner):
    """Lists of records that share one key set, each key's values all ``str``,
    all ``int`` or mixed, with odd records mixed in: another key set, a
    nested, bool, None or float value, a ``_Dict``, or a ``_Str`` key or value."""
    keys = draw(st.lists(_RECORD_KEYS, min_size=1, max_size=3, unique=True))
    kinds = [st.integers(), _TEXT, st.one_of(st.integers(), _TEXT)]
    records = draw(st.lists(st.fixed_dictionaries({key: draw(st.sampled_from(kinds)) for key in keys}),
                            min_size=1, max_size=6))
    odd_values = st.one_of(inner, st.booleans(), st.none(), st.floats(), _TEXT.map(_Str))
    for _ in range(draw(st.integers(0, 2))):
        record, key = dict(draw(st.sampled_from(records))), draw(st.sampled_from(keys))
        odd = draw(st.sampled_from(["fewer keys", "other key", "value", "_Dict", "_Str key"]))
        if odd == "fewer keys":
            record = {k: v for k, v in record.items() if k != key}
        elif odd == "other key":
            record = {k + "?" if k == key else k: v for k, v in record.items()}
        elif odd == "value":
            record[key] = draw(odd_values)
        elif odd == "_Dict":
            record = _Dict(record)
        else:
            record = {_Str(k) if k == key else k: v for k, v in record.items()}
        records.insert(draw(st.integers(0, len(records))), record)
    return records


_JSON_TREES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.integers(min_value=2**64),
              st.floats(), st.sampled_from([float("nan"), float("inf"), -0.0]), _TEXT, _TEXT.map(_Str)),
    lambda inner: st.one_of(
        st.lists(inner), st.lists(inner).map(tuple),
        st.dictionaries(_TEXT, inner), st.dictionaries(_TEXT, inner).map(_Dict),
        st.dictionaries(_KEYS, inner, max_size=3), _record_lists(inner)),
    max_leaves=20,
)


def _outcome(write, data):
    try:
        return write(data)
    except (TypeError, ValueError, RecursionError) as exc:
        return type(exc), str(exc)


def _reference_json(data):
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


@settings(deadline=None)
@given(_JSON_TREES, st.integers(0, 60))
def test_canonical_json_is_json_dumps(tree, depth):
    # Mixed-type keys make both sides raise the same TypeError.
    for _ in range(depth):
        tree = [tree] if depth % 2 else {"k": tree}
    assert _outcome(canonical_json, tree) == _outcome(_reference_json, tree)


@settings(deadline=None, max_examples=300)
@given(_record_lists(_JSON_TREES), st.integers(0, 3))
def test_record_lists_are_json_dumps(records, depth):
    # The list is tried at several depths, each with its own indent.
    for _ in range(depth):
        records = {"k": [records]}
    assert _outcome(canonical_json, records) == _outcome(_reference_json, records)


def test_canonical_json_hands_cycles_and_deep_nesting_to_json_dumps():
    cycle = {"a": [1]}
    cycle["a"].append(cycle)
    deep = []
    for _ in range(sys.getrecursionlimit() + 10):
        deep = [deep]
    for data in (cycle, deep):
        assert type(_outcome(canonical_json, data)) is tuple
        assert _outcome(canonical_json, data)[0] is _outcome(_reference_json, data)[0]


def test_corpus_round_trips():
    for name in corpus_builders():
        kc = load_complex(name)
        assert kc.to_json() == json.loads((corpus_dir() / f"{name}.json").read_text())


def corpus_data(name):
    return json.loads((corpus_dir() / f"{name}.json").read_text(encoding="utf-8"))


def write_json(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def with_ghost_endpoint(data):
    data["differential"].append({"from": data["generators"][0]["name"], "to": "ghost", "upower": 0})
    return data


@pytest.mark.parametrize(
    "argv",
    [["cfk", "--complex"], ["surgery", "--n", "0", "--complex"], ["double", "--complex"],
     ["endfloer", "--knot"]],
    ids=["cfk", "surgery", "double", "endfloer"],
)
def test_unknown_differential_endpoint_is_domain_error(tmp_path, capsys, argv):
    path = write_json(tmp_path / "ghost.json", with_ghost_endpoint(corpus_data("k3")))
    code, out, err = run(capsys, *argv, path)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "ghost" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [["double", "--complex"], ["endfloer", "--knot"]],
                         ids=["double", "endfloer"])
def test_double_validates_its_input(tmp_path, capsys, argv):
    data = corpus_data("k3")
    data["differential"][0]["upower"] = 5
    path = write_json(tmp_path / "inhomogeneous.json", data)
    code, out, err = run(capsys, *argv, path)
    assert code == 1
    assert out == ""
    assert err.startswith("error: invalid complex")


def test_distinguish_validates_and_parses_inline_pieces(tmp_path, capsys):
    plain = write_json(tmp_path / "plain.json", {"knot": "k3"})
    ghost = write_json(tmp_path / "ghost.json", {"knot": with_ghost_endpoint(corpus_data("k3"))})
    code, out, err = run(capsys, "distinguish", "--a", ghost, "--b", plain)
    assert code == 1
    assert out == ""
    assert err.startswith("error: invalid complex") and "ghost" in err
    assert len(err.strip().splitlines()) == 1

    data = corpus_data("k3")
    data["generators"][0]["maslov"] = "x"
    bad = write_json(tmp_path / "bad_grading.json", {"knot": data})
    code, out, err = run(capsys, "distinguish", "--a", plain, "--b", bad)
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot parse inline complex")


def test_unparsable_grading_is_file_error(tmp_path, capsys):
    data = corpus_data("k3")
    data["generators"][0]["maslov"] = "x"
    path = write_json(tmp_path / "bad_grading.json", data)
    code, out, err = run(capsys, "cfk", "--complex", path)
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot parse complex file")


def test_cfk_table_trefoil(capsys):
    code, out, err = run(capsys, "cfk", "--complex", "trefoil", "--format", "table")
    assert (code, err) == (0, "")
    assert out == (
        "  maslov  alexander   dim\n"
        "       0          1     1\n"
        "      -1          0     1\n"
        "      -2         -1     1\n"
    )


def set_alexander(data, value):
    data["alexander"]["s1"] = value


def set_upower(data, value):
    data["differential"][0]["upower"] = value


def set_b1(data, value):
    data["ambient"]["b1"] = value


@pytest.mark.parametrize(
    "command, mutate, value",
    [
        (["cfk", "--complex"], set_alexander, 0.5),
        (["surgery", "--n", "0", "--complex"], set_upower, 1.9),
        (["cfk", "--complex"], set_upower, True),
        (["cfk", "--complex"], set_b1, 0.5),
    ],
    ids=["alexander-0.5", "upower-1.9", "upower-true", "b1-0.5"],
)
def test_non_integer_json_is_file_error(tmp_path, capsys, command, mutate, value):
    data = corpus_data("trefoil")
    mutate(data, value)
    path = write_json(tmp_path / "trefoil.json", data)
    code, out, err = run(capsys, *command, path)
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot parse complex file") and "not an integer" in err
    assert len(err.strip().splitlines()) == 1


def test_integer_strings_are_accepted(tmp_path, capsys):
    data = corpus_data("trefoil")
    set_upower(data, "1")
    set_alexander(data, "0")
    set_b1(data, "0")
    code, out, _ = run(capsys, "cfk", "--complex", write_json(tmp_path / "trefoil.json", data))
    assert code == 0
    assert out == run(capsys, "cfk", "--complex", "trefoil")[1]


def test_endfloer_single_level_is_usage_error(capsys):
    # Checked before loading: the missing file is never reached.
    code, out, err = run(capsys, "endfloer", "--knot", "no-such-file.json", "--levels", "1")
    assert (code, out) == (2, "")
    assert err == "error: --levels must be at least 2\n"


@pytest.mark.parametrize(
    "handle, code",
    [({"kind": "finite_mixed_then_one_sign", "signs": ["-"], "tail": "+"}, 0),
     ({"kind": "bogus"}, 2),
     ({}, 2)],
    ids=["finite-mixed", "bogus-kind", "no-kind"],
)
def test_distinguish_piece_with_dict_handle(tmp_path, capsys, handle, code):
    a = write_json(tmp_path / "a.json", {"knot": "k3", "handle": handle})
    b = write_json(tmp_path / "b.json", {"knot": "k5"})
    got, out, err = run(capsys, "distinguish", "--a", a, "--b", b)
    assert got == code
    if code == 0:
        assert json.loads(out)["distinct"] is True and err == ""
    else:
        assert out == "" and err.startswith("error: ") and len(err.strip().splitlines()) == 1


NEEDS_SIGNS = "finite mixed handles need a sign prefix and a tail sign"


@pytest.mark.parametrize(
    "signs, tail, code, err",
    [("+-", "+", 2, "error: malformed piece description in {path!r}: signs is not a JSON list: '+-'\n"),
     ([], "+", 2, f"error: malformed piece description in {{path!r}}: {NEEDS_SIGNS}\n"),
     ([[1]], "+", 2, f"error: malformed piece description in {{path!r}}: {NEEDS_SIGNS}\n"),
     (["+"], ["+"], 2, f"error: malformed piece description in {{path!r}}: {NEEDS_SIGNS}\n")],
    ids=["string", "empty", "list-sign", "list-tail"],
)
def test_distinguish_mixed_handle_needs_a_sign_list(tmp_path, capsys, signs, tail, code, err):
    handle = {"kind": "finite_mixed_then_one_sign", "signs": signs, "tail": tail}
    a = write_json(tmp_path / "a.json", {"knot": "k3", "handle": handle})
    b = write_json(tmp_path / "b.json", {"knot": "k5"})
    assert run(capsys, "distinguish", "--a", a, "--b", b) == (code, "", err.format(path=a))


@pytest.mark.parametrize("handle, message", [({}, 'the handle has no "kind"'),
                                             ({"signs": ["+"]}, 'the handle has no "kind"'),
                                             ({"kind": "bogus"}, "unknown handle kind 'bogus'"),
                                             ({"kind": 5}, "unknown handle kind 5")],
                         ids=["empty", "no-kind", "bogus-kind", "number-kind"])
@pytest.mark.parametrize("summands", [False, True], ids=["piece", "summand"])
def test_distinguish_bad_handle_kind_is_malformed(tmp_path, capsys, handle, message, summands):
    # A dict handle without a kind, or with one outside the taxonomy, is a
    # malformed piece (exit 2), like an unknown handle name.
    piece = {"knot": "k3", "handle": handle}
    bad = write_json(tmp_path / "bad.json", {"summands": [{"knot": "k5"}, piece]} if summands else piece)
    plain = write_json(tmp_path / "plain.json", {"knot": "k3"})
    err = f"error: malformed piece description in {bad!r}: {message}\n"
    assert run(capsys, "distinguish", "--a", bad, "--b", plain) == (2, "", err)


@pytest.mark.parametrize("handle", [5, [1], None], ids=["number", "list", "null"])
def test_distinguish_handle_of_wrong_type_is_malformed(tmp_path, capsys, handle):
    a = write_json(tmp_path / "a.json", {"knot": "k3", "handle": handle})
    b = write_json(tmp_path / "b.json", {"knot": "k5"})
    err = f"error: malformed piece description in {a!r}: handle is not a string or a JSON object: {handle!r}\n"
    assert run(capsys, "distinguish", "--a", a, "--b", b) == (2, "", err)


@pytest.mark.parametrize("label", [5, [1], None], ids=["number", "list", "null"])
def test_distinguish_disk_label_of_wrong_type_is_malformed(tmp_path, capsys, label):
    a = write_json(tmp_path / "a.json", {"knot": "k3", "disk_label": label})
    b = write_json(tmp_path / "b.json", {"knot": "k5"})
    err = f"error: malformed piece description in {a!r}: disk_label is not a string: {label!r}\n"
    assert run(capsys, "distinguish", "--a", a, "--b", b) == (2, "", err)


def test_endfloer_tower_at_depth_twelve(capsys):
    code, out, err = run(capsys, "endfloer", "--knot", "k9", "--handle", "ch+", "--levels", "12")
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["max_nontrivial_grading"] == "6"
    assert data["per_grading"]["6"] == {"rank": "inf", "tag": "exact"}
    ranks = ", ".join(str(2 ** i) for i in range(1, 13))
    assert f"top-summand injectivity compounds: ranks {ranks} at grading 6" in data["narrative"]


@pytest.mark.parametrize(
    "piece, distinct, witness",
    [({"knot": "k3", "handle": {"kind": "finite_mixed_then_one_sign", "signs": ["-"], "tail": "+"}},
      True, "distinct: one end has max grading 4 / reversed vanishes, "
      "the other max grading 3 / reversed vanishes"),
     ({"knot": "wh_k3", "handle": "ch*"},
      False, "indistinguishable_by_this_invariant: an operand is undetermined")],
    ids=["mixed-prefix", "infinite-chain"],
)
def test_distinguish_end_sum_resolves_each_piece(tmp_path, capsys, piece, distinct, witness):
    a = write_json(tmp_path / "a.json", {"summands": [piece, {"knot": "k5"}]})
    b = write_json(tmp_path / "b.json", {"summands": [{"knot": "k3"}, {"knot": "k5"}]})
    code, out, err = run(capsys, "distinguish", "--a", a, "--b", b)
    assert (code, err) == (0, "")
    assert json.loads(out) == {"distinct": distinct, "witness": witness}


def set_maslov_true(data):
    data["generators"][0]["maslov"] = True


def set_reduced_trivial_string(data):
    data["ambient"]["reduced_trivial"] = "false"


def alexander_as(value):
    return lambda data: data.update(alexander=value)


def set_maslov_zero_denominator(data):
    data["generators"][0]["maslov"] = "1/0"


def set_name_list(data):
    data["name"] = [1]


def set_ambient_name_number(data):
    data["ambient"]["name"] = 5


@pytest.mark.parametrize(
    "command, entry, mutate",
    [(["surgery", "--n", "0", "--complex"], "unknot", set_maslov_true),
     (["double", "--complex"], "k3", set_reduced_trivial_string),
     (["cfk", "--complex"], "trefoil", alexander_as([])),
     (["surgery", "--n", "0", "--complex"], "trefoil", alexander_as(None)),
     (["double", "--complex"], "k3", alexander_as("x")),
     (["endfloer", "--knot"], "k3", alexander_as([])),
     (["cfk", "--complex"], "k3", set_maslov_zero_denominator),
     (["surgery", "--n", "0", "--complex"], "trefoil", set_maslov_zero_denominator),
     (["double", "--complex"], "k3", set_maslov_zero_denominator),
     (["endfloer", "--knot"], "k3", set_maslov_zero_denominator),
     (["cfk", "--complex"], "trefoil", set_name_list),
     (["surgery", "--n", "0", "--complex"], "trefoil", set_ambient_name_number)],
    ids=["maslov-true", "reduced-trivial-string", "alexander-list-cfk", "alexander-null-surgery",
         "alexander-string-double", "alexander-list-endfloer", "maslov-zero-denominator-cfk",
         "maslov-zero-denominator-surgery", "maslov-zero-denominator-double",
         "maslov-zero-denominator-endfloer", "name-list-cfk", "ambient-name-number-surgery"],
)
def test_json_boolean_confusion_is_file_error(tmp_path, capsys, command, entry, mutate):
    data = corpus_data(entry)
    mutate(data)
    code, out, err = run(capsys, *command, write_json(tmp_path / f"{entry}.json", data))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot parse complex file")
    assert len(err.strip().splitlines()) == 1


def test_distinguish_inline_zero_denominator_is_file_error(tmp_path, capsys):
    data = corpus_data("k3")
    set_maslov_zero_denominator(data)
    plain = write_json(tmp_path / "plain.json", {"knot": "k3"})
    bad = write_json(tmp_path / "bad.json", {"knot": data})
    code, out, err = run(capsys, "distinguish", "--a", plain, "--b", bad)
    assert (code, out) == (2, "")
    assert err == "error: cannot parse inline complex: grading '1/0' has a zero denominator\n"


@pytest.mark.parametrize("knot, ambient", [("j_in_y", "Y"), ("jprime_in_yprime", "Y'")])
@pytest.mark.parametrize("handle", ["ch+", "ch-", "ch*", "undetermined"])
@pytest.mark.parametrize("orientation", ["+", "-"])
def test_endfloer_piece_needs_knot_in_sphere(capsys, knot, ambient, handle, orientation):
    code, out, err = run(capsys, "endfloer", "--knot", knot, "--handle", handle,
                         "--orientation", orientation)
    assert (code, out) == (1, "")
    assert err == f"error: a slice piece needs a knot in S3, not in {ambient}\n"


def test_distinguish_piece_needs_knot_in_sphere(tmp_path, capsys):
    a = write_json(tmp_path / "a.json", {"knot": "k3"})
    b = write_json(tmp_path / "b.json", {"knot": "j_in_y", "handle": "ch-"})
    code, out, err = run(capsys, "distinguish", "--a", a, "--b", b)
    assert (code, out) == (1, "")
    assert err == "error: a slice piece needs a knot in S3, not in Y\n"


@pytest.mark.parametrize("argv", [["surgery", "--n", "0", "--complex"], ["cfk", "--complex"]],
                         ids=["surgery", "cfk"])
def test_negative_b1_is_file_error(tmp_path, capsys, argv):
    data = corpus_data("trefoil")
    set_b1(data, -1)
    code, out, err = run(capsys, *argv, write_json(tmp_path / "trefoil.json", data))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot parse complex file") and err.endswith("b1 is negative: -1\n")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "argv", [["surgery", "--n", "1", "--complex"], ["cfk", "--complex"]], ids=["surgery", "cfk"]
)
def test_non_integral_maslov_over_sphere_is_domain_error(tmp_path, capsys, argv):
    data = corpus_data("unknot")
    data["generators"][0]["maslov"] = "1/3"
    code, out, err = run(capsys, *argv, write_json(tmp_path / "unknot.json", data))
    assert (code, out) == (1, "")
    assert err == "error: invalid complex: Maslov grading 1/3 of x is not an integer over S3\n"


def list_first_entry_twice(data):
    data["differential"].append(dict(data["differential"][0]))


def add_extra_alexander(data):
    data["alexander"]["extra"] = 3


def add_ghost_flip_pair(data):
    data["flip"].append(["ghost1", "ghost2"])


@pytest.mark.parametrize("argv", [["surgery", "--n", "0", "--complex"], ["cfk", "--complex"]],
                         ids=["surgery", "cfk"])
@pytest.mark.parametrize(
    "mutate, message",
    [(list_first_entry_twice, "differential entry s1->s0 is listed twice"),
     (add_extra_alexander, "alexander grades 'extra', which are not generators"),
     (add_ghost_flip_pair, "flip pairs 'ghost1', 'ghost2', which are not generators")],
    ids=["duplicate-entry", "extra-alexander", "ghost-flip-pair"],
)
def test_repeated_or_unknown_names_are_file_errors(tmp_path, capsys, argv, mutate, message):
    data = corpus_data("trefoil")
    mutate(data)
    code, out, err = run(capsys, *argv, write_json(tmp_path / "trefoil.json", data))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot parse complex file") and message in err
    assert len(err.strip().splitlines()) == 1


def name_first_generator(value):
    return lambda data: data["generators"][0].update(name=value)


def drop_alexander_of(name):
    return lambda data: data["alexander"].pop(name)


@pytest.mark.parametrize("argv", [["surgery", "--n", "0", "--complex"], ["cfk", "--complex"],
                                  ["double", "--complex"]], ids=["surgery", "cfk", "double"])
@pytest.mark.parametrize(
    "mutate, message",
    [(name_first_generator(7), "generator name 7 is not a string"),
     (name_first_generator(None), "generator name None is not a string"),
     (drop_alexander_of("(s0|s0)"), "generator '(s0|s0)' has no alexander grade")],
    ids=["name-number", "name-null", "missing-alexander"],
)
def test_malformed_generator_is_named(tmp_path, capsys, argv, mutate, message):
    data = corpus_data("k3")
    mutate(data)
    path = write_json(tmp_path / "k3.json", data)
    code, out, err = run(capsys, *argv, path)
    assert (code, out) == (2, "")
    assert err == f"error: cannot parse complex file {path!r}: {message}\n"


def drop(where, key):
    def mutate(data):
        where(data).pop(key)
        return data
    return mutate


def replace(key, value):
    return lambda data: {**data, key: value}


@pytest.mark.parametrize("argv", [["surgery", "--n", "0", "--complex"], ["cfk", "--complex"], None],
                         ids=["surgery", "cfk", "distinguish-inline"])
@pytest.mark.parametrize(
    "mutate, message",
    [(drop(lambda d: d["generators"][2], "maslov"), 'generator 2 has no "maslov"'),
     (drop(lambda d: d["generators"][0], "name"), 'generator 0 has no "name"'),
     (drop(lambda d: d["differential"][1], "from"), 'differential entry 1 has no "from"'),
     (drop(lambda d: d["differential"][0], "to"), 'differential entry 0 has no "to"'),
     (drop(lambda d: d["differential"][1], "upower"), 'differential entry 1 has no "upower"'),
     (drop(lambda d: d, "generators"), 'the complex has no "generators"'),
     (drop(lambda d: d, "alexander"), 'the complex has no "alexander"'),
     (drop(lambda d: d["ambient"], "b1"), '"ambient" has no "b1"'),
     (replace("generators", {"s0": "0"}), '"generators" is an object, not a list'),
     (replace("differential", {"s1": "s0"}), '"differential" is an object, not a list'),
     (lambda d: d["generators"].insert(1, "s9") or d, "generator 1 is a string, not an object"),
     (lambda d: d["flip"].append(["s0", "s1", "s2"]) or d, "flip pair 2 is not a list of two generator names"),
     (lambda d: d["flip"].insert(0, "s0") or d, "flip pair 0 is not a list of two generator names"),
     (replace("flip", "s0"), '"flip" is a string, not a list'),
     (lambda d: [d], "the complex is a list, not an object")],
    ids=["no-maslov", "no-name", "no-from", "no-to", "no-upower", "no-generators", "no-alexander",
         "no-ambient-b1", "generators-object", "differential-object", "generator-string", "flip-triple",
         "flip-string-pair", "flip-string", "top-level-list"],
)
def test_malformed_structure_names_field_and_entry(tmp_path, capsys, argv, mutate, message):
    data = mutate(corpus_data("trefoil"))
    if argv is None:
        plain = write_json(tmp_path / "plain.json", {"knot": "k3"})
        bad = write_json(tmp_path / "bad.json", {"knot": data})
        code, out, err = run(capsys, "distinguish", "--a", plain, "--b", bad)
        assert (code, out, err) == (2, "", f"error: cannot parse inline complex: {message}\n")
    else:
        path = write_json(tmp_path / "trefoil.json", data)
        code, out, err = run(capsys, *argv, path)
        assert (code, out, err) == (2, "", f"error: cannot parse complex file {path!r}: {message}\n")


@pytest.mark.parametrize("piece, message", [([{"knot": "k3"}], "the piece is a list, not an object"),
                                            ("k3", "the piece is a string, not an object")],
                         ids=["list", "string"])
def test_distinguish_piece_that_is_not_an_object_is_malformed(tmp_path, capsys, piece, message):
    plain = write_json(tmp_path / "plain.json", {"knot": "k3"})
    bad = write_json(tmp_path / "bad.json", piece)
    code, out, err = run(capsys, "distinguish", "--a", bad, "--b", plain)
    assert (code, out, err) == (2, "", f"error: malformed piece description in {bad!r}: {message}\n")


@pytest.mark.parametrize("piece, message", [({"summands": 5}, '"summands" is a number, not a list'),
                                            ({"summands": {"k3": 1}}, '"summands" is an object, not a list'),
                                            ("summands", "the piece is a string, not an object"),
                                            ([1], "the piece is a list, not an object"),
                                            ({"handle": "ch+"}, 'the piece has no "knot"'),
                                            ({"summands": [{"knot": "k3"}, 5]},
                                             "summand 1 is a number, not an object"),
                                            ({"summands": [{"knot": "k3"}, {"handle": "ch+"}]},
                                             'summand 1 has no "knot"')],
                         ids=["number", "object", "string", "list", "no-knot", "summand-number", "summand-no-knot"])
def test_distinguish_names_the_malformed_field(tmp_path, capsys, piece, message):
    plain = write_json(tmp_path / "plain.json", {"knot": "k3"})
    bad = write_json(tmp_path / "bad.json", piece)
    code, out, err = run(capsys, "distinguish", "--a", plain, "--b", bad)
    assert (code, out, err) == (2, "", f"error: malformed piece description in {bad!r}: {message}\n")


@pytest.mark.parametrize("orientation", [5, "x", None, ["+"]], ids=["number", "string", "null", "list"])
@pytest.mark.parametrize("summands", [False, True], ids=["piece", "summand"])
def test_distinguish_bad_orientation_is_malformed(tmp_path, capsys, orientation, summands):
    piece = {"knot": "k3", "orientation": orientation}
    bad = write_json(tmp_path / "bad.json", {"summands": [{"knot": "k5"}, piece]} if summands else piece)
    plain = write_json(tmp_path / "plain.json", {"knot": "k3"})
    err = f"error: malformed piece description in {bad!r}: orientation is not '+' or '-': {orientation!r}\n"
    assert run(capsys, "distinguish", "--a", bad, "--b", plain) == (2, "", err)


def shift_maslov(data, by):
    for g in data["generators"]:
        g["maslov"] = str(int(g["maslov"]) + by)
    return data


@pytest.mark.parametrize("argv", [["surgery", "--n", "0", "--complex"], ["cfk", "--complex"],
                                  ["double", "--complex"]], ids=["surgery", "cfk", "double"])
@pytest.mark.parametrize(
    "data, found",
    [({"generators": [], "alexander": {}, "flip": []}, "zero"),
     (shift_maslov(corpus_data("unknot"), 2), "rank 1 at Maslov 2"),
     (shift_maslov(corpus_data("wh_k3"), -2), "rank 1 at Maslov -2")],
    ids=["empty", "unknot-at-2", "wh_k3-at-minus-2"],
)
def test_sphere_complex_must_have_one_tower_at_zero(tmp_path, capsys, argv, data, found):
    code, out, err = run(capsys, *argv, write_json(tmp_path / "complex.json", data))
    assert (code, out) == (1, "")
    assert err == f"error: invalid complex: U=0 homology over S3 is {found}, not rank 1 at Maslov 0\n"


def test_surgery_splits_and_checks_its_input_once(capsys, monkeypatch):
    # Wh(K3) is x plus 8 boxes: two shapes, validated once, and both of
    # Hedden's normal form, certified by their keys with no per-shape check.
    calls = Counter()
    for module, name in ((cfk, "_summands"), (cfk, "_summand_violations"), (cli, "validate_knot")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda kc, real=real, name=name: calls.update([name]) or real(kc))
    code, out, _ = run(capsys, "surgery", "--complex", "wh_k3", "--n", "0")
    assert code == 0 and out
    assert calls == {"_summands": 1, "validate_knot": 1}


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("name, shapes", [("k9", 1), ("wh_k9", 2)])
def test_cfk_reduces_each_summand_shape_once(capsys, monkeypatch, fmt, name, shapes):
    # K9 is one summand shape; Wh(K9) is x plus copies of one box.
    calls = []
    real = cfk._canonical
    monkeypatch.setattr(cfk, "_canonical", lambda kc, *rows: calls.append(len(kc.generators)) or real(kc, *rows))
    code, out, _ = run(capsys, "cfk", "--complex", name, "--format", fmt)
    assert code == 0 and out
    assert len(calls) == shapes


def run_python_dash_m(argv, **kwargs):
    src = Path(floerforge.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-m", "floerforge", *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, **kwargs)
    return done.returncode, done.stdout, done.stderr


def test_out_of_memory_is_one_line():
    # Forty doublings of K3 would write out about 2^81 boxes.  The probe's
    # address space is capped at 1 GB, so it runs out of memory at once and
    # never takes the machine's.
    resource = pytest.importorskip("resource")
    cap = lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    argv = ["double", "--complex", "k3", "--iterations", "40"]
    assert run_python_dash_m(argv, preexec_fn=cap, timeout=300) == (1, "", "error: out of memory\n")


def test_one_parser_per_process_is_invisible(capsys, monkeypatch):
    # The same parser serves every in-process call, also after a usage error
    # and after --help exits through it.
    monkeypatch.setenv("COLUMNS", "80")
    for argv in (["surgery", "--complex", "k3"], ["cfk", "--help"], ["cfk", "--help"],
                 ["surgery", "--complex", "k3", "--n", "1"], ["endfloer", "--knot", "j_in_y"]):
        assert run(capsys, *argv) == run_python_dash_m(argv), argv


@pytest.mark.parametrize("argv", [["cfk", "--complex", "k3"], ["surgery", "--complex", "nosuch", "--n", "0"]],
                         ids=["cfk-k3", "missing-file"])
def test_python_dash_m_runs_the_cli(capsys, argv):
    assert run_python_dash_m(argv) == run(capsys, *argv)


# --- JSON-mutation fuzz -------------------------------------------------------

FUZZ_ENTRIES = ["unknot", "trefoil", "figure8", "t2_5", "j_in_y", "jprime_in_yprime", "k3", "wh_k3"]
FUZZ_COMMANDS = [["cfk", "--complex"], ["surgery", "--n", "-1", "--complex"], ["surgery", "--n", "0", "--complex"],
                 ["surgery", "--n", "1", "--complex"], ["double", "--complex"], ["endfloer", "--knot"]]
ODD_VALUES = ["x", "1/0", 1.5, True, None, [], {}]
GRADINGS = ["-2", "-1", "0", "1", "2", "1/2", "-1/2", 3, *ODD_VALUES]
SMALL_INTS = [-2, -1, 0, 1, 2, "1", *ODD_VALUES]


AMBIENT_FIELDS = {"b1": [0, 1, 2, -1, "1", None], "name": ["S3", "Y", "Y'", "Z", 5],
                  "reduced_trivial": [True, False, "false", None]}


def names_in(data):
    return [g["name"] for g in data["generators"]]


def entry_of(data, key, draw):
    """A drawn element of the list ``data[key]``, or None if it is empty."""
    return draw(st.sampled_from(data[key])) if data[key] else None


def mutate_grading(data, draw):
    if g := entry_of(data, "generators", draw):
        g["maslov"] = draw(st.sampled_from(GRADINGS))


def mutate_endpoint(data, draw):
    if e := entry_of(data, "differential", draw):
        e[draw(st.sampled_from(["from", "to"]))] = draw(st.sampled_from(names_in(data) + ["ghost", 5, None]))


def mutate_power(data, draw):
    if e := entry_of(data, "differential", draw):
        e["upower"] = draw(st.sampled_from(SMALL_INTS))


def mutate_alexander(data, draw):
    if alexander := data["alexander"]:
        alexander[draw(st.sampled_from(sorted(alexander)))] = draw(st.sampled_from(SMALL_INTS))


def mutate_flip_pair(data, draw):
    if pair := entry_of(data, "flip", draw):
        name = draw(st.sampled_from(names_in(data) + ["ghost"]))
        change = draw(st.sampled_from(["replace", "drop", "extend", "swap"]))
        if change == "replace":
            pair[draw(st.integers(0, len(pair) - 1))] = name
        elif change == "drop":
            pair.pop()
        elif change == "extend":
            pair.append(name)
        else:
            pair.reverse()


def add_or_drop_entry(data, draw):
    key = draw(st.sampled_from(["generators", "differential", "flip", "alexander"]))
    entries, name = data[key], lambda: draw(st.sampled_from(names_in(data) + ["fresh"]))
    if entries and draw(st.booleans()):
        del entries[draw(st.sampled_from(sorted(entries) if key == "alexander" else range(len(entries))))]
    elif key == "alexander":
        entries[name()] = draw(st.sampled_from(SMALL_INTS))
    elif key == "generators":
        entries.append({"name": name(), "maslov": draw(st.sampled_from(GRADINGS))})
    elif key == "differential":
        entries.append({"from": name(), "to": name(), "upower": draw(st.integers(0, 1))})
    else:
        entries.append([name(), name()])


def mutate_ambient(data, draw):
    field = draw(st.sampled_from([*AMBIENT_FIELDS, None]))
    if field is None or not isinstance(data["ambient"], dict):
        data["ambient"] = draw(st.sampled_from([None, 5, {}]))
    else:
        data["ambient"][field] = draw(st.sampled_from(AMBIENT_FIELDS[field]))


MUTATIONS = [mutate_grading, mutate_endpoint, mutate_power, mutate_alexander, mutate_flip_pair, add_or_drop_entry,
             mutate_ambient]


@st.composite
def mutated_corpus_files(draw):
    """A small corpus file with one to three fields mutated."""
    data = corpus_data(draw(st.sampled_from(FUZZ_ENTRIES)))
    for mutate in draw(st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=3)):
        mutate(data, draw)
    return data


@settings(derandomize=True, deadline=None, max_examples=120)
@given(data=mutated_corpus_files(), handle=st.sampled_from(["ch+", "ch-", "ch*", "undetermined"]))
def test_mutated_corpus_files_end_in_one_line(tmp_path_factory, data, handle):
    # Every CLI command on a malformed file exits 0, 1 or 2; a failure is
    # one "error:" line and no traceback.  A reducer assertion escaping
    # main after full validation would be a bug in an ingress check.
    path = write_json(tmp_path_factory.mktemp("fuzz") / "mutated.json", data)
    for command in FUZZ_COMMANDS:
        argv = command + [path] + (["--handle", handle] if command[0] == "endfloer" else [])
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv)
        assert code in (0, 1, 2), argv
        assert (err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1) == (code != 0), argv


# --- piece-file fuzz of distinguish -------------------------------------------

NEWLINE_NAMED = {"generators": [{"name": "a\nb", "maslov": "0"}], "alexander": {"a\nb": 1}, "flip": [["a\nb", "a\nb"]]}
NESTED_JUNK = [[[[]]], {"a": [{"b": None}]}, [{"knot": "k3"}], {"summands": [{"knot": "k3"}]},
               functools.reduce(lambda inner, _: [inner], range(40), {"knot": "k3"})]
PIECE_JUNK = [5, -1, 1.5, True, None, "", "nosuch", "line\nbreak", [], {}, [1], *NESTED_JUNK]
FIELD_JUNK = {
    "knot": PIECE_JUNK + [{"generators": 5}, NEWLINE_NAMED],
    "handle": PIECE_JUNK + ["ch?", {"kind": 5}, {"kind": "all_positive_chain", "signs": "x"},
                            {"kind": "finite_mixed_then_one_sign", "signs": [[1]], "tail": "+"}],
    "orientation": PIECE_JUNK + ["++", ["+"]],
    "disk_label": [v for v in PIECE_JUNK if not isinstance(v, str)],
}


def retype_field(piece, draw):
    field = draw(st.sampled_from(sorted(FIELD_JUNK)))
    piece[field] = draw(st.sampled_from(FIELD_JUNK[field]))


def delete_knot(piece, draw):
    del piece["knot"]


def drop_optional_field(piece, draw):
    piece.pop(draw(st.sampled_from(["handle", "orientation", "disk_label"])), None)


def add_unknown_field(piece, draw):
    piece[draw(st.sampled_from(["extra", "Knot", ""]))] = draw(st.sampled_from(PIECE_JUNK))


@st.composite
def broken_piece_files(draw):
    """A ``distinguish`` piece file, one piece or a list of summands, that
    one drawn fault makes malformed or invalid, with up to two harmless
    changes beside it."""
    pieces = [{"knot": draw(st.sampled_from(["k3", "k5", "trefoil"])), "handle": draw(st.sampled_from(["ch+", "ch*"])),
               "orientation": draw(st.sampled_from("+-")), "disk_label": "standard"}
              for _ in range(draw(st.integers(1, 2)))]
    for mutate in draw(st.lists(st.sampled_from([drop_optional_field, add_unknown_field]), max_size=2)):
        mutate(draw(st.sampled_from(pieces)), draw)
    fault = draw(st.sampled_from(["piece", "summands-not-a-list", "nested-summand", "nested-file"]))
    if fault == "piece":
        draw(st.sampled_from([retype_field, delete_knot]))(draw(st.sampled_from(pieces)), draw)
    elif fault == "summands-not-a-list":
        return {"summands": draw(st.sampled_from([p for p in PIECE_JUNK if not isinstance(p, list)]))}
    elif fault == "nested-summand":
        pieces[draw(st.integers(0, len(pieces) - 1))] = draw(st.sampled_from(NESTED_JUNK))
        return {"summands": pieces}
    else:
        return draw(st.sampled_from([junk for junk in NESTED_JUNK if "summands" not in junk]))  # not a piece
    return {"summands": pieces} if len(pieces) > 1 or draw(st.booleans()) else pieces[0]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(data=broken_piece_files(), first=st.booleans())
@example(data={"knot": NEWLINE_NAMED}, first=True)
def test_broken_piece_files_end_in_one_line(tmp_path_factory, data, first):
    # A malformed or invalid piece file ends distinguish in exit 2 or 1 with
    # one "error:" line, on either side, and no traceback.
    folder = tmp_path_factory.mktemp("pieces")
    bad, plain = write_json(folder / "bad.json", data), write_json(folder / "plain.json", {"knot": "k3"})
    argv = ["distinguish", "--a", bad, "--b", plain] if first else ["distinguish", "--a", plain, "--b", bad]
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    assert code in (1, 2) and out.getvalue() == "", (code, data)
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, err.getvalue()


@pytest.mark.parametrize("command", ["surgery", "distinguish"])
def test_a_line_break_in_a_name_is_escaped_in_the_error(tmp_path, capsys, command):
    # The message names the generator "a\nb"; its line break is escaped, so
    # the error stays one line.
    if command == "surgery":
        argv = ["surgery", "--n", "0", "--complex", write_json(tmp_path / "named.json", NEWLINE_NAMED)]
    else:
        argv = ["distinguish", "--a", write_json(tmp_path / "named.json", {"knot": NEWLINE_NAMED}),
                "--b", write_json(tmp_path / "plain.json", {"knot": "k3"})]
    message = "flip image of a\\nb has Alexander 1 != -1; flip image of a\\nb has wrong Maslov grading"
    assert run(capsys, *argv) == (1, "", f"error: invalid complex: {message}\n")
