import json
import os
import random
import resource
import subprocess
import sys
import textwrap
import time

import pytest

import algen.algebra
import algen.cli
import algen.integral
import algen.search
import algen.zoo
from algen.cli import main
from algen.intmat import Factorization, decimal_str
from algen.ioformat import parse_algebra
from support import src_env

RING_PRESENTATION = {
    "format": "algen-algebra",
    "version": "1",
    "base": "Z",
    "presentation": {"generators": "2", "relations": [["2", "2"]]},
    "ops": [
        {
            "arity": "2",
            "role": "product",
            "entries": [
                ["0", "0", "0", "1"],
                ["0", "1", "1", "1"],
                ["1", "0", "1", "1"],
                ["1", "1", "0", "1"],
            ],
        },
        {"arity": "0", "role": "unit", "entries": [["0", "1"]]},
    ],
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out else None


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def m2(tmp_path, capsys):
    code, doc = run(capsys, "zoo", "matrix", "--field", "F2", "--n", "2")
    assert code == 0
    return write(tmp_path, "m2.json", doc)


@pytest.fixture
def e3z(tmp_path, capsys):
    code, doc = run(capsys, "zoo", "split-etale-z", "--n", "3")
    assert code == 0
    return write(tmp_path, "e3z.json", doc)


# ---------------------------------------------------------------------------
# zoo
# ---------------------------------------------------------------------------


def test_zoo_families(capsys, tmp_path):
    for argv, dim in [
        (("zoo", "matrix", "--field", "F3", "--n", "3"), 9),
        (("zoo", "zero", "--field", "Q", "--r", "4"), 4),
        (("zoo", "split-etale", "--field", "F2", "--n", "3"), 3),
        # F^0 is an algebra; only its generators need n >= 1
        (("zoo", "split-etale", "--field", "F2", "--n", "0"), 0),
        (("zoo", "split-etale", "--field", "Q", "--n", "0", "--unital"), 0),
        (("zoo", "quaternion", "--field", "Q"), 4),
        (("zoo", "octonion", "--field", "F5"), 8),
        (("zoo", "matrix-z", "--n", "2"), 4),
        (("zoo", "split-etale-z", "--n", "2"), 2),
        (("zoo", "zero-z", "--factors", "2,6,0"), 3),
    ]:
        code, doc = run(capsys, *argv)
        assert code == 0
        parsed = parse_algebra(doc)
        size = parsed.algebra.rank if parsed.is_integral else parsed.algebra.dim
        assert size == dim


def test_zoo_generators(capsys):
    code, gens = run(capsys, "zoo", "matrix", "--field", "F2", "--emit", "generators")
    assert code == 0
    assert gens == [["1", "0", "0", "0"], ["0", "1", "1", "0"]]
    code, gens = run(capsys, "zoo", "split-etale", "--field", "F2", "--n", "3",
                     "--emit", "generators")
    assert code == 0 and len(gens) == 2
    code, gens = run(capsys, "zoo", "split-etale", "--field", "Q", "--n", "4",
                     "--emit", "generators")
    assert code == 0 and gens == [["1", "2", "3", "4"]]
    code, gens = run(capsys, "zoo", "octonion", "--field", "Q", "--emit", "generators")
    assert code == 0 and len(gens) == 3
    # no canonical generators recorded for the zero family, and none exist for F^0
    code, _ = run(capsys, "zoo", "zero", "--field", "Q", "--emit", "generators")
    assert code == 3
    for field in ("F2", "Q"):
        code, _ = run(capsys, "zoo", "split-etale", "--field", field, "--n", "0", "--emit", "generators")
        assert code == 3


def test_zoo_builds_only_what_it_prints(capsys, monkeypatch):
    # the Albert algebra is built once, and its generators, found by a
    # random probe, are not built for --emit algebra; --emit generators
    # probes the algebra it built
    calls = {"albert": 0, "probe": 0}
    build, probe = algen.zoo.albert, algen.search.random_probe

    def counted_albert(field):
        calls["albert"] += 1
        return build(field)

    def counted_probe(*args, **kwargs):
        calls["probe"] += 1
        return probe(*args, **kwargs)

    for module in (algen.cli, algen.zoo):
        monkeypatch.setattr(module, "albert", counted_albert)
    monkeypatch.setattr(algen.search, "random_probe", counted_probe)
    code, doc = run(capsys, "zoo", "albert", "--field", "F3")
    assert code == 0 and doc["dim"] == "27"
    assert calls == {"albert": 1, "probe": 0}
    calls.update(albert=0)
    code, gens = run(capsys, "zoo", "albert", "--field", "F3", "--emit", "generators")
    assert code == 0 and len(gens) == 3
    assert calls == {"albert": 1, "probe": 1}


def test_zoo_invalid(capsys):
    assert run(capsys, "zoo", "bogus")[0] == 3
    assert run(capsys, "zoo", "matrix", "--field", "F4")[0] == 3
    assert run(capsys, "zoo", "zero-z", "--factors", "3,2")[0] == 3


def test_shared_parser_keeps_no_state_between_calls(capsys, m2):
    # main reuses one parser per process; a usage error, --help and check
    # with and without --unital, one after another, each print and exit as
    # they do on a parser of their own
    assert algen.cli.build_parser() is algen.cli.build_parser()
    tuple_ = '[["0","1","0","0"]]'
    calls = [
        ["check", m2],
        ["--help"],
        ["check", m2, "--tuple", tuple_, "--unital"],
        ["check", m2, "--tuple", tuple_],
    ]

    def outcome(argv):
        code = main(argv)
        return code, capsys.readouterr().out

    alone = []
    for argv in calls:
        algen.cli.build_parser.cache_clear()
        alone.append(outcome(argv))
    assert [code for code, _ in alone] == [3, 0, 1, 1]
    assert alone[2][1] != alone[3][1]
    algen.cli.build_parser.cache_clear()
    assert [outcome(argv) for argv in calls] == alone


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_field(capsys, m2):
    code, doc = run(capsys, "check", m2, "--tuple",
                    '[["1","0","0","0"],["0","1","1","0"]]')
    assert code == 0
    assert doc["kind"] == "generation" and doc["closure_dim"] == "4"
    code, doc = run(capsys, "check", m2, "--tuple", '[["0","0","0","0"]]')
    assert code == 1 and doc["closure_dim"] == "0"
    assert run(capsys, "check", m2, "--tuple", '[["1","0"]]')[0] == 3
    assert run(capsys, "check", m2, "--tuple", "not json")[0] == 3


def test_check_unital(capsys, tmp_path):
    code, doc = run(capsys, "zoo", "split-etale", "--field", "F2", "--n", "2")
    path = write(tmp_path, "e2.json", doc)
    assert run(capsys, "check", path, "--tuple", '[["0","1"]]')[0] == 1
    code, doc = run(capsys, "check", path, "--tuple", '[["0","1"]]', "--unital")
    assert code == 0 and doc["unital"] is True


def test_check_integral(capsys, e3z):
    code, doc = run(capsys, "check", e3z, "--tuple", '[["1","2","3"],["0","0","1"]]')
    assert code == 0 and doc["kind"] == "global-generation"
    assert doc["report"]["generates"] is True
    code, doc = run(capsys, "check", e3z, "--tuple", '[["1","1","1"]]')
    assert code == 1
    # the unital flag is a field-side notion
    assert run(capsys, "check", e3z, "--tuple", '[["1","2","3"]]', "--unital")[0] == 3


def test_check_refuses_a_dim_beyond_list_lengths(capsys, tmp_path):
    # a declared dim above sys.maxsize is invalid input (3), not a certified
    # negative (1) from an escaped OverflowError
    doc = {
        "format": "algen-algebra",
        "version": "1",
        "base": "F2",
        "dim": str(sys.maxsize + 1),
        "ops": [{"arity": "2", "role": "product", "entries": []}],
    }
    path = write(tmp_path, "huge.json", doc)
    assert run(capsys, "check", path, "--tuple", "[]")[0] == 3


def test_check_tuple_from_file(capsys, m2, tmp_path):
    tup = tmp_path / "tuple.json"
    tup.write_text('[["1","0","0","0"],["0","1","1","0"]]', encoding="utf-8")
    assert run(capsys, "check", m2, "--tuple", f"@{tup}")[0] == 0


# ---------------------------------------------------------------------------
# mingen
# ---------------------------------------------------------------------------


def test_mingen(capsys, tmp_path):
    code, doc = run(capsys, "zoo", "split-etale", "--field", "F2", "--n", "3")
    path = write(tmp_path, "e3.json", doc)
    code, report = run(capsys, "mingen", path)
    assert code == 0
    assert report["n_upper"] == "2" and report["lower_bound_certified"] is True
    cert_path = write(tmp_path, "mingen.json", report)
    assert run(capsys, "verify-cert", path, cert_path)[0] == 0
    # a budget far above the default is not rerun: inconclusive, exit 2
    report["budget"]["max_exhaustive"] = "1" + "0" * 30
    code, verdict = run(capsys, "verify-cert", path, write(tmp_path, "costly.json", report))
    assert code == 2 and verdict["detail"].startswith("inconclusive: too costly to verify")
    # on two split factors the unital count drops to one
    code, doc = run(capsys, "zoo", "split-etale", "--field", "F2", "--n", "2")
    path = write(tmp_path, "e2.json", doc)
    code, report = run(capsys, "mingen", path, "--unital")
    assert code == 0 and report["n_upper"] == "1"


def test_mingen_inconclusive_and_invalid(capsys, m2, e3z, tmp_path):
    code, report = run(capsys, "mingen", m2, "--max-exhaustive", "1", "--trials", "1")
    assert code == 2
    assert run(capsys, "mingen", e3z)[0] == 3
    # rationals admit no exhaustive enumeration
    code, doc = run(capsys, "zoo", "matrix", "--field", "Q")
    path = write(tmp_path, "mq.json", doc)
    assert run(capsys, "mingen", path)[0] == 3


# ---------------------------------------------------------------------------
# bad-primes
# ---------------------------------------------------------------------------


def test_bad_primes(capsys, e3z, tmp_path):
    code, doc = run(capsys, "bad-primes", e3z, "--tuple", '[["1","2","3"]]')
    assert code == 0
    assert doc["report"]["primes"] == ["2"] and doc["report"]["exponent"] == "2"
    cert = write(tmp_path, "bp.json", doc)
    assert run(capsys, "verify-cert", e3z, cert)[0] == 0
    doc["elements"][0] = ["0", "1", "10000000000000000000000007"]
    code, verdict = run(capsys, "verify-cert", e3z, write(tmp_path, "big.json", doc))
    assert code == 2 and verdict["ok"] is False
    assert verdict["detail"].startswith("inconclusive: could not factor")
    code, doc = run(capsys, "bad-primes", e3z, "--tuple", '[["0","0","0"]]')
    assert code == 1 and doc["report"]["generic_fail"] is True
    assert run(capsys, "bad-primes", e3z, "--tuple", '[["1","2"]]')[0] == 3


def test_bad_primes_with_thousand_digit_coordinates(capsys, e3z, tmp_path):
    # the exponent of M/B is read off the HNF: with an SNF and its dense
    # transforms each command took about 28 s on a 2-CPU host, now about
    # 1 s, nearly all of it factoring; the bound leaves room for slow hosts
    rng = random.Random(1)
    element = [str(rng.randrange(10**999, 10**1000)) for _ in range(3)]
    start = time.perf_counter()
    code, doc = run(capsys, "bad-primes", e3z, "--tuple", json.dumps([element]))
    assert time.perf_counter() - start < 10
    assert code == 2 and doc["error"] == "factorization-incomplete"
    code, doc = run(capsys, "bad-primes", e3z, "--tuple", '[["1","2","3"]]')
    doc["elements"] = [element]
    start = time.perf_counter()
    code, verdict = run(capsys, "verify-cert", e3z, write(tmp_path, "big.json", doc))
    assert time.perf_counter() - start < 10
    assert code == 2 and verdict["detail"].startswith("inconclusive: could not factor")


def test_cofactor_beyond_the_int_string_limit_is_inconclusive(capsys, e3z, tmp_path, monkeypatch):
    # a cofactor longer than Python's 4,300-digit int-string limit is written
    # in full, so both commands exit 2 with a document that prints
    big = 10**5069 + 1
    code, doc = run(capsys, "bad-primes", e3z, "--tuple", '[["1","2","3"]]')
    assert code == 0
    cert = write(tmp_path, "bad-primes.json", doc)
    monkeypatch.setattr(algen.integral, "factor", lambda n: Factorization(n=n, primes=(), cofactor=big))
    code, doc = run(capsys, "bad-primes", e3z, "--tuple", '[["1","2","3"]]')
    assert code == 2 and doc["error"] == "factorization-incomplete"
    assert doc["cofactor"] == "1" + "0" * 5068 + "1"
    code, verdict = run(capsys, "verify-cert", e3z, cert)
    assert code == 2 and verdict["detail"].startswith("inconclusive: could not factor")


def test_exponent_beyond_the_int_string_limit_exits_0(capsys, e3z, tmp_path):
    # (0, 2^14000, 2^14001) leaves a quotient of exponent 2^28001, 8,430
    # digits, past Python's 4,300-digit int-string limit: the report writes
    # it through decimal_str, and the verifier re-emits it the same way
    element = ["0", str(2**14000), str(2**14001)]
    code, doc = run(capsys, "bad-primes", e3z, "--tuple", json.dumps([element]))
    assert code == 0
    assert doc["report"]["primes"] == ["2"]
    assert doc["report"]["exponent"] == decimal_str(2**28001)
    code, verdict = run(capsys, "verify-cert", e3z, write(tmp_path, "bad-primes.json", doc))
    assert code == 0 and verdict["ok"] is True


def test_edited_lift_exponent_is_refused_at_any_length(capsys, e3z, tmp_path):
    # a lift's verification exponent is always 1, so any other value is an
    # edit, refused (exit 1) below and past the 4,300-digit int-string limit
    code, lift = run(capsys, "forster-lift", e3z, "--n", "2")
    assert code == 0 and lift["verification"]["support"]["exponent"] == "1"
    for digits in (1, 4000, 5000, 50_001):
        lift["verification"]["support"]["exponent"] = "7" * digits
        code, verdict = run(capsys, "verify-cert", e3z, write(tmp_path, f"lift{digits}.json", lift))
        assert code == 1 and verdict["ok"] is False, digits


def test_bad_primes_on_mat6_z(capsys, tmp_path):
    # two random elements of Mat_6(Z) with entries in [-3, 3] generate a
    # subgroup of exponent 4; the closure before the reduced Hermite form
    # and the semi-naive loop ran for more than two minutes here
    code, doc = run(capsys, "zoo", "matrix-z", "--n", "6")
    algebra = write(tmp_path, "m6z.json", doc)
    rng = random.Random(6)
    pair = [[str(rng.randint(-3, 3)) for _ in range(36)] for _ in range(2)]
    code, doc = run(capsys, "bad-primes", algebra, "--tuple", json.dumps(pair))
    assert code == 0 and doc["report"] == {"exponent": "4", "generic_fail": False, "primes": ["2"]}
    assert run(capsys, "verify-cert", algebra, write(tmp_path, "bad-primes.json", doc))[0] == 0


def test_lift_checks_roles_once_per_parsed_algebra(capsys, tmp_path, monkeypatch):
    # a Mat_3(Z) lift and its verification each check the parsed Z form
    # once; the fibres they build are base changes and are not checked again
    code, doc = run(capsys, "zoo", "matrix-z", "--n", "3")
    algebra = write(tmp_path, "m3z.json", doc)
    checked, fibres = [], []
    real_check, real_fiber = algen.algebra.check_roles, algen.integral._restricted_fiber

    def check_roles(alg, *args):
        checked.append(type(alg).__name__)
        return real_check(alg, *args)

    def restricted_fiber(A, coords, field):
        fibres.append(field)
        return real_fiber(A, coords, field)

    monkeypatch.setattr(algen.algebra, "check_roles", check_roles)
    monkeypatch.setattr(algen.integral, "check_roles", check_roles)
    monkeypatch.setattr(algen.integral, "_restricted_fiber", restricted_fiber)
    code, lift = run(capsys, "forster-lift", algebra, "--n", "2")
    assert code == 0 and checked == ["IntegralAlgebra"] and len(fibres) >= 2
    checked.clear()
    fibres.clear()
    assert run(capsys, "verify-cert", algebra, write(tmp_path, "lift.json", lift))[0] == 0
    assert checked == ["IntegralAlgebra"] and fibres


def test_bad_primes_needs_z(capsys, m2):
    assert run(capsys, "bad-primes", m2, "--tuple", '[["1","0","0","0"]]')[0] == 3


# ---------------------------------------------------------------------------
# forster-lift and verify-cert
# ---------------------------------------------------------------------------


def test_lift_and_verify(capsys, e3z, tmp_path):
    code, doc = run(capsys, "forster-lift", e3z, "--n", "2")
    assert code == 0
    assert doc["generators"] == [["0", "0", "1"], ["0", "1", "0"], ["0", "0", "0"]]
    cert = write(tmp_path, "lift.json", doc)
    assert run(capsys, "verify-cert", e3z, cert)[0] == 0
    doc["generators"][0] = ["0", "0", "0"]
    tampered = write(tmp_path, "tampered.json", doc)
    code, verdict = run(capsys, "verify-cert", e3z, tampered)
    assert code == 1 and verdict["ok"] is False
    # certificates carry no factor bound: naming one makes the document
    # non-canonical, whatever its size
    doc["generators"][0] = ["0", "0", "1"]
    doc["factor_bound"] = "1" + "0" * 30
    code, verdict = run(capsys, "verify-cert", e3z, write(tmp_path, "costly.json", doc))
    assert code == 1 and "canonical" in verdict["detail"]
    # and no command takes the option any more
    for argv in (
        ["check", e3z, "--tuple", '[["1","2","3"]]'],
        ["bad-primes", e3z, "--tuple", '[["1","2","3"]]'],
        ["forster-lift", e3z, "--n", "2"],
    ):
        assert run(capsys, *argv)[0] in (0, 1)
        assert run(capsys, *argv, "--factor-bound", "1000000") == (3, None)


def test_verify_cert_refuses_edited_lift_fields(capsys, tmp_path):
    # the lift of Z/3 + Z with n = 2 splits its partition; each edit of a
    # recorded field is refused by the replay with a detail naming its step
    code, doc = run(capsys, "zoo", "zero-z", "--factors", "3,0")
    algebra = write(tmp_path, "z30.json", doc)
    code, lift = run(capsys, "forster-lift", algebra, "--n", "2")
    assert code == 0
    assert run(capsys, "verify-cert", algebra, write(tmp_path, "lift.json", lift))[0] == 0
    edits = [
        ("element", lambda d: d["steps"][0].update(element=["1", "1"]), "step 0: "),
        ("excluded", lambda d: d["steps"][1]["completions"][1]["excluded"].append("7"), "step 1: "),
        ("witness", lambda d: d["steps"][2]["completions"][0].update(witness=["0"]), "step 2: "),
        ("partition", lambda d: d["steps"][1]["partition"].pop(), "step 1: "),
        ("completions", lambda d: d["steps"][1]["completions"].pop(), "step 1: "),
    ]
    for name, edit, where in edits:
        tampered = json.loads(json.dumps(lift))
        edit(tampered)
        code, verdict = run(capsys, "verify-cert", algebra, write(tmp_path, f"{name}.json", tampered))
        assert code == 1 and verdict["ok"] is False, name
        assert verdict["detail"].startswith(where), (name, verdict["detail"])


def test_lift_on_presentation(capsys, tmp_path):
    path = write(tmp_path, "ring.json", RING_PRESENTATION)
    code, doc = run(capsys, "forster-lift", path, "--n", "1")
    assert code == 0 and len(doc["generators"]) == 2
    cert = write(tmp_path, "ringlift.json", doc)
    assert run(capsys, "verify-cert", path, cert)[0] == 0


def test_lift_failures(capsys, tmp_path):
    code, doc = run(capsys, "zoo", "zero-z", "--factors", "2,2")
    path = write(tmp_path, "z22.json", doc)
    code, failure = run(capsys, "forster-lift", path, "--n", "1")
    assert code == 1
    assert failure["error"] == "hypothesis-failure"
    assert failure["report"]["prime"] == "2"
    code, doc = run(capsys, "zoo", "matrix-z", "--n", "2")
    mz = write(tmp_path, "mz.json", doc)
    code, failure = run(capsys, "forster-lift", mz, "--n", "2",
                        "--max-exhaustive", "1", "--trials", "2")
    assert code == 2 and failure["error"] == "budget-exhausted"
    assert run(capsys, "forster-lift", mz, "--n", "-1")[0] == 3
    assert run(capsys, "forster-lift", mz)[0] == 3


def test_verify_cert_mismatch(capsys, m2, e3z, tmp_path):
    code, doc = run(capsys, "forster-lift", e3z, "--n", "2")
    cert = write(tmp_path, "lift.json", doc)
    code, verdict = run(capsys, "verify-cert", m2, cert)
    assert code == 1 and "hash" in verdict["detail"]
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{", encoding="utf-8")
    assert run(capsys, "verify-cert", e3z, str(garbled))[0] == 3
    assert run(capsys, "verify-cert", str(tmp_path / "missing.json"), cert)[0] == 3


def test_cli_reports_usage_errors_as_invalid(capsys):
    assert main(["no-such-command"]) == 3
    assert main([]) == 3
    assert main(["--help"]) == 0
    capsys.readouterr()


# ---------------------------------------------------------------------------
# internal errors and the installed entry point
# ---------------------------------------------------------------------------


def _limit_address_space():
    # the interpreter with algen imported takes about 25 MiB
    resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))


def test_memory_error_exits_internal(tmp_path):
    # mingen on a 127-byte F_2 document declaring dim 10^12 computes
    # 2^(dim * n) and runs out of memory; a crash is no certified negative,
    # so it exits 4, not 1.  In a subprocess with a 256 MiB address-space
    # limit, so that the allocation fails, not the host.  The power squares
    # its way up to the limit: on a 2-CPU host that took 3-4 s under 256 MiB
    # and 30 s under 2 GiB
    doc = (
        '{"base":"F2","dim":"1000000000000","format":"algen-algebra",'
        '"ops":[{"arity":"2","entries":[],"role":"product"}],"version":"1"}'
    )
    path = tmp_path / "huge.json"
    path.write_text(doc + "\n", encoding="utf-8")
    assert path.stat().st_size == 127
    done = subprocess.run(
        [sys.executable, "-m", "algen.cli", "mingen", str(path)],
        env=src_env(),
        preexec_fn=_limit_address_space,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 4, done.stderr[-500:]
    report = json.loads(done.stdout)
    assert report["error"] == "internal" and "MemoryError" in report["detail"]


def test_internal_error_exits_4(capsys, e3z, monkeypatch):
    def crash(*args, **kwargs):
        raise RuntimeError("internal: lift step lost its prime")

    monkeypatch.setattr(algen.cli, "forster_lift", crash)
    code, doc = run(capsys, "forster-lift", e3z, "--n", "2")
    assert code == 4
    assert doc == {"error": "internal", "detail": "RuntimeError('internal: lift step lost its prime')"}


def _workflow_step_script(name: str) -> str:
    """The run block of the CI workflow step with this name, dedented."""
    workflow = os.path.join(os.path.dirname(__file__), os.pardir, ".github", "workflows", "tests.yml")
    with open(workflow, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    step = lines.index(f"      - name: {name}")
    run = next(i for i in range(step + 1, len(lines)) if lines[i].strip() == "run: |")
    indent = len(lines[run]) - len(lines[run].lstrip())
    block = []
    for line in lines[run + 1 :]:
        if line.strip() and len(line) - len(line.lstrip()) <= indent:
            break
        block.append(line)
    return textwrap.dedent("\n".join(block)) + "\n"


def test_ci_entry_point_commands(tmp_path):
    # the workflow's "algen entry point" block as it stands, heredoc
    # included, in a POSIX shell under set -e, with algen standing for
    # python -m algen.cli; every verify-cert it runs must accept
    script = _workflow_step_script("algen entry point")
    prelude = 'set -e\nalgen() { "$ALGEN_PYTHON" -m algen.cli "$@"; }\n'
    env = dict(src_env(), ALGEN_PYTHON=sys.executable)
    done = subprocess.run(
        prelude + script, shell=True, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, done.stderr[-500:]
    verdicts = [json.loads(line) for line in done.stdout.splitlines()]
    assert len(verdicts) == script.count("algen verify-cert ")
    assert all(v["ok"] is True for v in verdicts), verdicts
    kinds = {v["kind"] for v in verdicts}
    assert kinds >= {"generation", "mingen", "bad-primes", "global-generation", "lift"}, kinds
