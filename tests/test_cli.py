import argparse
import hashlib
import io
import json
import time

import pytest

from sepal.cli import _EXIT, _build_parser, main
from sepal.graphio import load_graph, parse_graph, print_graph
from sepal.graphs import validate
from test_constructions import BAD_BIP, NAME_COLLISIONS, hsat_by_scan
from test_graphio import MALFORMED_SEPARATIONS, malformed_separation_text


def run(*argv):
    buf = io.StringIO()
    code = main(list(argv), stdout=buf)
    return code, buf.getvalue()


def run_json(*argv):
    code, text = run("--json", *argv)
    return code, json.loads(text)


@pytest.fixture()
def e23_path(fixture_dir):
    return str(fixture_dir / "e23.txt")


@pytest.fixture()
def wmax22_path(fixture_dir):
    return str(fixture_dir / "wmax22.txt")


@pytest.fixture()
def omega0_path(fixture_dir):
    return str(fixture_dir / "omega0_35.txt")


# --- exit codes ------------------------------------------------------------------

def test_validate_ok(e23_path):
    code, text = run("validate", "--graph", e23_path)
    assert code == 0
    assert "valid" in text


def test_validate_fail(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("graph weighted\nvertex v\nedge e = v -> v\nweight e = 0\n")
    code, doc = run_json("validate", "--graph", str(bad))
    assert code == 1
    assert doc["status"] == "fail"
    assert any("positive integers" in v for v in doc["payload"]["violations"])


def test_missing_file_is_an_error():
    code, doc = run_json("validate", "--graph", "/no/such/file")
    assert code == 2
    assert doc["status"] == "error"
    assert "message" in doc["payload"]


def test_syntax_error_is_an_error(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("graph weighted\nedge e v v\n")
    code, doc = run_json("validate", "--graph", str(bad))
    assert code == 2
    assert "line 2" in doc["payload"]["message"]


def test_unknown_budget_exit(omega0_path):
    code, doc = run_json("monoid", "congruent", "--graph", omega0_path,
                         "--x", "v", "--y", "3 v", "--budget-states", "1")
    assert code == 3
    assert doc["payload"]["answer"] == "unknown"
    assert doc["provenance"]["budget"]["states"] == 1


@pytest.mark.parametrize("flag, value", [
    ("--budget-states", "0"), ("--budget-states", "-1"),
    ("--budget-sum", "0"), ("--budget-sum", "-2")])
def test_non_positive_budget_is_an_error(omega0_path, flag, value):
    code, doc = run_json("monoid", "leavitt-type", "--graph", omega0_path,
                         "--generator", "v", flag, value)
    assert code == 2
    assert "must be positive" in doc["payload"]["message"]


def test_budget_flags_need_no_environment(omega0_path):
    # a missing flag takes the default of its Budget field
    for flags, budget in [
            (("--budget-states", "500", "--budget-sum", "10"),
             {"coord_sum": 10, "states": 500}),
            (("--budget-states", "500"), {"coord_sum": 32, "states": 500}),
            ((), {"coord_sum": 32, "states": 10 ** 6})]:
        code, doc = run_json("monoid", "leavitt-type", "--graph", omega0_path,
                             "--generator", "v", *flags)
        assert code == 0, flags
        assert doc["provenance"]["budget"] == budget


def test_garbage_budget_flag_is_a_usage_error(omega0_path):
    with pytest.raises(SystemExit) as exc:
        run("monoid", "leavitt-type", "--graph", omega0_path,
            "--generator", "v", "--budget-states", "lots")
    assert exc.value.code == 2


def test_leavitt_type_past_its_budget_is_unknown(omega0_path):
    # the type (1, 2) needs p + q = 3; a sum of 2 scans no pair at all
    code, text = run("monoid", "leavitt-type", "--graph", omega0_path,
                     "--generator", "v", "--budget-sum", "2")
    assert code == 3
    assert text == "no (p, q) within budget\n"


@pytest.mark.parametrize("subset, witness", [
    ("v", "  edge e1 leads from v to w outside the set"),
    ("w", "  group [e1 e2 e3] at v forces it in"),
], ids=["hereditary", "saturated"])
def test_hsat_check_prints_its_witness(e23_path, subset, witness):
    code, text = run("hsat", "check", "--graph", e23_path, "--set", subset)
    assert code == 1
    assert witness in text.splitlines()


@pytest.mark.parametrize("kind, graphs, relations", [
    ("phi", 94, 2111), ("phi1", 194, 4997), ("phi0", 100, 3873),
    ("rho-tau", 100, 19857)])
def test_verify_sweep(kind, graphs, relations):
    code, doc = run_json("verify", kind, "--sweep")
    assert code == 0
    payload = doc["payload"]
    assert (payload["graphs"], payload["relations_checked"],
            payload["failures"]) == (graphs, relations, 0)
    assert len(payload["entries"]) == graphs
    assert sum(e["checked"] for e in payload["entries"]) == relations
    code, text = run("verify", kind, "--sweep")
    assert text == (f"{kind}: {graphs} graphs, {relations} relations "
                    "checked, 0 failures\n")


@pytest.mark.parametrize("verb, text, message", NAME_COLLISIONS,
                         ids=["kept-vertex", "joined-tuples", "slot-vertex"])
def test_construct_refuses_colliding_names(tmp_path, verb, text, message):
    path = tmp_path / "graph.txt"
    path.write_text(text)
    code, out = run("validate", "--graph", str(path))
    assert code == 0
    code, out = run("construct", verb, "--graph", str(path))
    assert code == 2
    assert out == f"error: {message}\n"


def test_congruent_no_is_fail(wmax22_path):
    code, doc = run_json("monoid", "congruent", "--graph", wmax22_path,
                         "--x", "v", "--y", "0")
    assert code == 1
    assert doc["payload"]["answer"] == "no"


def test_congruent_yes_with_path(wmax22_path):
    code, doc = run_json("monoid", "congruent", "--graph", wmax22_path,
                         "--x", "2 v", "--y", "2 v(e1,1) + 2 v(e2,1)")
    assert code == 0
    path = doc["payload"]["path"]
    assert path[0] == "2 v"
    assert path[-1] == "2 v(e1,1) + 2 v(e2,1)"


# --- determinism --------------------------------------------------------------------

def test_json_runs_are_byte_identical(e23_path, omega0_path, wmax22_path):
    calls = [
        ("validate", "--graph", e23_path),
        ("construct", "resolve", "--graph", e23_path),
        ("hsat", "enumerate", "--graph", e23_path),
        ("nf", "--graph", e23_path, "e3 e3*"),
        ("verify", "phi0", "--graph", e23_path),
        ("monoid", "present", "--graph", wmax22_path),
        ("monoid", "order-ideals", "--graph", omega0_path),
        ("mnlab", "example59", "--m", "3", "--n", "4"),
    ]
    for argv in calls:
        a = run("--json", *argv)
        b = run("--json", *argv)
        assert a == b, argv
        assert a[0] == 0


# sha256 of the --json reports: (verb, fixture, argument, digest).  The nf,
# verify and ideal-gens digests were recorded while the algebra core kept
# every coefficient as a Fraction; the construct, monoid and mnlab ones while
# every constructor re-validated its output and enumerate_hsat scanned small
# graphs subset by subset.  The report bytes must depend on neither.
JSON_DIGESTS = [
    ("nf", "e23", "3/2 e3 e3*",
     "cb1caaa517f8c92ee6120aeb8cc015a3f074fa6dc3b5e416bdc1a68939066b2a"),
    ("nf", "e23", "1/2 v + 1/2 v",
     "a5a0b9e8dff2dd8b55d811346bdf18165e00dba57ed59264d726db35bb352ad7"),
    ("nf", "e23", "2/4 e1",
     "7b9c9eb471e323bebb067a8220c6ecbb76afb2ced0eee9280c2761a32c9aed89"),
    ("nf", "wmax22", "3/2 e1.1 e1.1* - 1/2 v",
     "2b177c6f5f2b4f411751be34b8f6fe0b2f3cd0b1e7eb38f9d1f99a17b57a34da"),
    ("verify", "wmax22", "phi",
     "a60dee729a2931ea24a15f7c49b61691b1890c461d1b7383bec73fcbf5fcd460"),
    ("verify", "wmax22", "phi1",
     "f78eb5875a7cd0194092e90ce8287bef189967fde787775f264758d7f5fa9359"),
    ("verify", "omega0_35", "phi1",
     "bb5c0d05438a198c2162b843aecd8230fb29d0deb9270876924af18169c5a8d9"),
    ("verify", "e23", "phi0",
     "6782e096180b36dae4e3616300a582f13754d900d536720839795838991d6c34"),
    ("verify", "e23", "rho-tau",
     "d7f28fe360a44619ff31d651fc294696ef44dfb437546f0b1923fb867f485770"),
    ("ideal-gens", "e23", "kernel",
     "1e85a8820a0c21fe190542a13c433a9d7c2fdb9426fa746ea6415886aa791116"),
    ("ideal-gens", "wmax22", "i0",
     "7fa95b66efbb2957721641acc6d3b2b9619708beb5b6f57a849c34d7b5051c83"),
    ("ideal-gens", "e23", "commutator",
     "26db694240122a5a4e613626e82717e30c73f0347c3a4fb994c5c071e9d2d5b2"),
    ("ideal-gens", "wmax22", "commutator",
     "712d1cf988e1a5c85263e3ba004aa017e9d3693d38c826efaec79960346d5675"),
    ("ideal-gens", "omega0_35", "commutator",
     "d1fae51a1f4eb11b583e021eeeb8511ceda28c152afde5a87d0e77e6a63d3fa6"),
    ("construct", "e23", "resolve",
     "ae390a1e455024fad8ba991199c109f6e1b1ca06360bf603b818931eedfd37b2"),
    ("construct", "e23", "bratteli",
     "669df9a368762937de9ab23c1a5a71c3403df5c74e9104bbd3e27863f908d080"),
    ("construct", "omega0_35", "w2sep",
     "4241955f9809e0f7c6a79da0d562f4d1e878ebdf7c83f79be2b0882eecc338ff"),
    ("monoid", "omega0_35", "order-ideals",
     "45ea84d386caffa40959e72cf548db61d9732508671ae7b05b9bf9857131c878"),
    ("monoid", "wmax22", "order-ideals",
     "f275da2b84802c84c2c2a32926179563983a0ed4eebdb0c486ef0793cc1fae99"),
    ("mnlab", None, "example59",
     "a1def9f75f4164173db5eef38f9c1a7d2e178dba343cf285018bb97164e29ee0"),
]


def _digest_argv(verb, path, arg):
    if verb == "nf":
        return ["nf", "--graph", path, arg]
    if verb == "verify":
        return ["verify", arg, "--graph", path]
    if verb == "ideal-gens":
        return ["ideal-gens", "--graph", path, "--kind", arg, "--bound", "2"]
    if verb == "construct":
        depth = ["--depth", "2"] if arg == "bratteli" else []
        return ["construct", arg, "--graph", path] + depth
    if verb == "monoid":
        return ["monoid", arg, "--graph", path]
    return ["mnlab", arg, "--m", "3", "--n", "4"]


@pytest.mark.parametrize("verb, fixture, arg, digest", JSON_DIGESTS,
                         ids=[f"{v}-{f}-{a}" for v, f, a, _ in JSON_DIGESTS])
def test_json_reports_match_recorded_digests(fixture_dir, verb, fixture, arg,
                                             digest):
    path = str(fixture_dir / f"{fixture}.txt") if fixture else None
    argv = _digest_argv(verb, path, arg)
    code, text = run("--json", *argv)
    assert code == 0, argv
    assert hashlib.sha256(text.encode()).hexdigest() == digest, argv


def test_hsat_enumerate_matches_scan(tmp_path, e23_path, omega0_path):
    code, text = run("construct", "w2sep", "--graph", omega0_path)
    assert code == 0
    companion = tmp_path / "companion.txt"
    companion.write_text(
        "\n".join(l for l in text.splitlines() if not l.startswith("#")))
    for path in (e23_path, str(companion)):
        code, doc = run_json("hsat", "enumerate", "--graph", path)
        assert code == 0
        expected = hsat_by_scan(load_graph(path))
        assert doc["payload"] == {"count": len(expected),
                                  "sets": [sorted(h) for h in expected]}


@pytest.mark.parametrize("argv", [("construct", "resolve"),
                                  ("hsat", "enumerate")])
def test_invalid_graph_file_exits_2(tmp_path, argv):
    bad = tmp_path / "bad.txt"
    bad.write_text(print_graph(BAD_BIP))
    code, doc = run_json(*argv, "--graph", str(bad))
    assert code == 2
    # resolve checks the levels too; enumerate only the separated graph
    checked = BAD_BIP if argv[0] == "construct" else BAD_BIP.base
    assert doc["payload"]["message"] == "; ".join(validate(checked))


@pytest.mark.parametrize("argv, graph, message", [
    (("construct", "vw2sep"), "e23.txt",
     "expected a weighted graph, got BipartiteSeparatedGraph"),
    (("verify", "phi"), "e23.txt",
     "expected a weighted graph, got BipartiteSeparatedGraph"),
    (("verify", "phi0"), "wmax22.txt",
     "expected a separated graph, got WeightedGraph"),
    (("hsat", "check"), "wmax22.txt",
     "expected a separated graph, got WeightedGraph"),
    (("ideal-gens", "--kind", "i0"), "e23.txt",
     "expected a weighted graph, got BipartiteSeparatedGraph"),
    (("construct", "resolve"), None,
     "not bipartite: edge 'e' ends at upper vertex 'v'"),
], ids=["vw2sep", "phi", "phi0", "hsat", "i0", "resolve"])
def test_wrong_kind_is_a_one_line_error(tmp_path, fixture_dir, argv, graph,
                                        message):
    if graph is None:
        path = tmp_path / "loop.txt"
        path.write_text("graph separated\nvertex v\nedge e = v -> v\n"
                        "separation v : [e]\n")
    else:
        path = fixture_dir / graph
    code, text = run(*argv, "--graph", str(path))
    assert code == 2
    assert text == f"error: {message}\n"


@pytest.mark.parametrize("groups, violation", MALFORMED_SEPARATIONS,
                         ids=["empty_group", "repeated_edge"])
def test_malformed_separation_is_rejected(tmp_path, groups, violation):
    bad = tmp_path / "bad.txt"
    bad.write_text(malformed_separation_text(groups))
    code, doc = run_json("validate", "--graph", str(bad))
    assert code == 1
    assert doc["payload"]["violations"] == [violation]
    code, doc = run_json("monoid", "present", "--graph", str(bad))
    assert code == 2
    assert doc["payload"]["message"] == violation


# --- graph output round trips ---------------------------------------------------------

def test_construct_output_reparses(e23_path):
    code, text = run("construct", "resolve", "--graph", e23_path)
    assert code == 0
    body = "\n".join(l for l in text.splitlines() if not l.startswith("#"))
    g = parse_graph(body)
    assert len(g.lower) == 6 and len(g.edges) == 12


def test_construct_emn_matches_fixture(e23_path):
    code, text = run("construct", "emn", "--m", "2", "--n", "3")
    with open(e23_path) as fh:
        assert fh.read().strip() in text


def test_construct_chain_through_files(tmp_path, wmax22_path):
    code, text = run("construct", "w2sep", "--graph", wmax22_path)
    assert code == 0
    body = "\n".join(l for l in text.splitlines() if not l.startswith("#"))
    companion = tmp_path / "companion.txt"
    companion.write_text(body + "\n")
    code, doc = run_json("hsat", "enumerate", "--graph", str(companion))
    assert code == 0
    assert doc["payload"]["count"] == 8


# --- normal forms -----------------------------------------------------------------------

def test_nf_separated(e23_path):
    code, doc = run_json("nf", "--graph", e23_path, "e3 e3*")
    assert code == 0
    assert doc["payload"]["normal_form"] == "v - e1 e1* - e2 e2*"
    prov = doc["provenance"]
    assert prov["designated_edges"] == {"v": ["e3", "f2"]}
    assert len(prov["graph_sha256"]) == 64


def test_nf_weighted_goes_through_companion(wmax22_path):
    code, doc = run_json("nf", "--graph", wmax22_path, "e1.1 e1.2*")
    assert code == 0
    assert doc["payload"]["normal_form"] == "0"
    code, doc = run_json("nf", "--graph", wmax22_path, "e1.1* e1.1")
    assert code == 0
    assert doc["payload"]["normal_form"] != "0"


def test_nf_bad_expression(e23_path):
    code, doc = run_json("nf", "--graph", e23_path, "e9 +")
    assert code == 2


# --- verification ---------------------------------------------------------------------------

def test_verify_single_graph(e23_path, wmax22_path, omega0_path):
    for argv in [("verify", "phi0", "--graph", e23_path),
                 ("verify", "rho-tau", "--graph", e23_path),
                 ("verify", "phi", "--graph", wmax22_path),
                 ("verify", "phi1", "--graph", omega0_path)]:
        code, doc = run_json(*argv)
        assert code == 0, argv
        assert doc["payload"]["failures"] == []
        assert doc["payload"]["checked"] > 0


def test_verify_needs_input():
    code, doc = run_json("verify", "phi0")
    assert code == 2


def test_verify_phi_rejects_uneven(omega0_path):
    code, doc = run_json("verify", "phi", "--graph", omega0_path)
    assert code == 2


# --- ideal generators -------------------------------------------------------------------------

def test_ideal_gens_kernel(e23_path):
    code, doc = run_json("ideal-gens", "--graph", e23_path,
                         "--kind", "kernel")
    assert code == 0
    assert doc["payload"]["count"] > 0
    assert all(g["label"].startswith("gamma:")
               for g in doc["payload"]["generators"])


def test_ideal_gens_i0(wmax22_path):
    code, doc = run_json("ideal-gens", "--graph", wmax22_path, "--kind", "i0")
    assert code == 0
    assert doc["payload"]["count"] == 8


def test_ideal_gens_commutator_refuses_too_many_pairs(wmax22_path):
    # 2,672 projections at bound 4: 3,568,456 pairs, far past the cap; the
    # family is refused once 513 distinct projections give 131,328 pairs
    t0 = time.perf_counter()
    code, doc = run_json("ideal-gens", "--graph", wmax22_path,
                         "--kind", "commutator", "--bound", "4")
    assert time.perf_counter() - t0 < 5
    assert code == 2
    assert doc["status"] == "error"
    assert "more than 131072 projection pairs" in doc["payload"]["message"]


def test_ideal_gens_commutator_refuses_before_listing_every_word(omega0_path):
    # bound 5 has 579,194 semigroup words; the refusal comes after the
    # first 1,488 of them
    t0 = time.perf_counter()
    code, doc = run_json("ideal-gens", "--graph", omega0_path,
                         "--kind", "commutator", "--bound", "5")
    assert time.perf_counter() - t0 < 5
    assert code == 2
    assert "more than 131072 projection pairs" in doc["payload"]["message"]


def test_ideal_gens_hsat(e23_path):
    code, doc = run_json("ideal-gens", "--graph", e23_path,
                         "--kind", "hsat", "--set", "v w")
    assert code == 0
    assert doc["payload"]["count"] == 2
    code, doc = run_json("ideal-gens", "--graph", e23_path, "--kind", "hsat")
    assert code == 2


# --- monoid and mnlab ---------------------------------------------------------------------------

def test_monoid_present(e23_path):
    code, doc = run_json("monoid", "present", "--graph", e23_path)
    assert code == 0
    assert doc["payload"]["relations"] == ["v = 3 w", "v = 2 w"]


def test_monoid_grothendieck(omega0_path):
    code, doc = run_json("monoid", "grothendieck", "--graph", omega0_path)
    assert code == 0
    assert doc["payload"]["group"] == "Z/2"


def test_monoid_leavitt_type(omega0_path):
    code, doc = run_json("monoid", "leavitt-type", "--graph", omega0_path,
                         "--generator", "v")
    assert code == 0
    assert (doc["payload"]["p"], doc["payload"]["q"]) == (1, 2)
    assert (doc["payload"]["order"], doc["payload"]["least"]) == (2, True)


def test_leavitt_type_of_infinite_order_scans_nothing(tmp_path):
    # a sink is a free generator: [v] has infinite order in G(M) = Z, so
    # no (p, q) exists and no word problem is run
    sink = tmp_path / "sink.txt"
    sink.write_text("graph separated\nvertex v\n")
    code, doc = run_json("monoid", "leavitt-type", "--graph", str(sink))
    assert code == 3
    payload = doc["payload"]
    assert (payload["answer"], payload["scanned"]) == ("unknown", 0)
    assert (payload["order"], payload["least"]) == (None, False)
    code, text = run("monoid", "leavitt-type", "--graph", str(sink))
    assert code == 3
    assert "[v] has infinite order in G(M), so no (p, q) exists" in text


@pytest.mark.parametrize("kind", ["separated", "weighted"])
def test_leavitt_type_without_vertices_is_an_error(tmp_path, kind):
    empty = tmp_path / "empty.txt"
    empty.write_text(f"graph {kind}\n")
    code, doc = run_json("monoid", "leavitt-type", "--graph", str(empty))
    assert code == 2
    assert doc["payload"]["message"] == "the presentation has no generators"


def test_monoid_order_ideals(omega0_path):
    code, doc = run_json("monoid", "order-ideals", "--graph", omega0_path)
    assert code == 0
    assert doc["payload"]["count"] == 3


def test_monoid_congruent_needs_vectors(e23_path):
    code, doc = run_json("monoid", "congruent", "--graph", e23_path)
    assert code == 2


def test_mnlab_partitions():
    code, doc = run_json("mnlab", "partitions", "--m", "3", "--n", "4")
    assert code == 0
    assert doc["payload"]["count"] == 10


def test_mnlab_refinement():
    code, doc = run_json("mnlab", "refinement", "--m", "3", "--n", "4",
                         "--partition", "4 2 2")
    assert code == 0
    assert doc["payload"]["shape"] == [[1, 1, 1, 1], [1, 1, 0, 0],
                                       [1, 1, 0, 0]]
    assert doc["payload"]["weights"] == {"e1": 3, "e2": 3, "e3": 1, "e4": 1}


def test_mnlab_matrices():
    code, doc = run_json("mnlab", "ideal-matrices", "--m", "2", "--n", "2")
    assert code == 0
    assert doc["payload"]["count"] == 7
    code, doc = run_json("mnlab", "min-configs", "--m", "2", "--n", "2")
    assert code == 0
    assert doc["payload"]["count"] == 2


def test_mnlab_example59():
    code, doc = run_json("mnlab", "example59", "--m", "3", "--n", "5")
    assert code == 0
    assert doc["payload"]["monoid"]["grothendieck"] == "Z/2"
    assert doc["payload"]["quotient"]["leavitt_type"] == [1, 1]


def _actions(*verbs):
    """(verb, action) for every choice of each verb's positional action."""
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for verb in verbs:
        what = next(a for a in sub.choices[verb]._actions if a.dest == "what")
        for action in what.choices:
            yield verb, action


# what every action of a verb runs on; a weighted input where one is needed
ACTION_ARGS = {
    "construct": ("--graph", "e23.txt", "--m", "2", "--n", "3"),
    "hsat": ("--graph", "e23.txt", "--set", "v w"),
    "monoid": ("--graph", "omega0_35.txt", "--generator", "v",
               "--x", "v", "--y", "3 v"),
    "mnlab": ("--m", "3", "--n", "4"),
}
WEIGHTED_ACTIONS = {"vw2sep", "w2sep"}
ACTIONS = list(_actions(*ACTION_ARGS))


@pytest.mark.parametrize("verb, action", ACTIONS, ids=map("-".join, ACTIONS))
def test_every_action_returns_a_report(fixture_dir, verb, action):
    args = list(ACTION_ARGS[verb])
    if "--graph" in args:
        graph = "wmax22.txt" if action in WEIGHTED_ACTIONS else args[1]
        args[1] = str(fixture_dir / graph)
    code, text = run(verb, action, *args)
    assert code == _EXIT["ok"]
    assert text.strip()


def test_json_envelope_shape(e23_path):
    code, doc = run_json("validate", "--graph", e23_path)
    assert set(doc) == {"command", "status", "payload", "provenance"}
    assert doc["command"] == "validate"
    assert doc["status"] == "ok"
