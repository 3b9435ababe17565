"""Golden outputs: the canonical stdout documents of `check`, `zoo` and of one
command per certificate kind are pinned by sha256.

The hashes were taken from the CLI before the arithmetic kernels were
rewritten; any change to the closure kernel, the evaluator or the row
reducer must leave every document byte-identical.  A deliberate format
change bumps CERTIFICATE_VERSION and re-pins them: the pins are of
certificate version "2", and each document with its version set back to
"1" hashes to the version 1 pin it replaced.  The `zoo` pins were taken
before the Albert and Cayley-Dickson builders were rewritten in integers;
algebra documents carry ALGEBRA_VERSION "1".  The per-kind pins (`mingen`,
`bad-primes`, `check` over Z and `forster-lift`, including a hypothesis
failure) were taken before certificate records were declared as codecs.
The `matrix-z` and `split-etale-z --n 5` lift pins were taken before the
lift reused the local requirement's completion searches.  The `zoo` pins of
the quaternions over F2, F3 and F5 and of the octonions over F2 and F5 were
taken before Cayley-Dickson doubling moved from field algebras to Z forms.
The `zoo --emit generators` pins were taken before the zoo command stopped
building generators for `--emit algebra`.  The sized `zoo` pins (split etale
over Q and F5, Mat_3 over F5, Mat_3(Z) and Z^4) were taken before tensors
were canonicalized only where they are made and base changes mapped their
entries.  The scalar spelling pins (`check` and the re-serialized algebra
of documents that spell their scalars in every accepted way) were taken
before plain decimal integers stopped going through Fraction.  The `mingen`
pins of Mat_2(F3), F2^5 and unital F3^3 were taken before the exhaustive
walk skipped a child whose residue modulo the parent span repeats.
"""

import hashlib
import json

import pytest

from algen.cli import main
from algen.ioformat import canonical_json, parse_algebra, serialize_algebra

OCT_ONE = [1, 0, 0, 1, 0, 0, 0, 0]
OCT_GENS = [
    [1, 0, 0, 0, 0, 0, 0, 0],
    [0, 1, 1, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 1, 0, 0, 1],
]


def albert_element(diag=(0, 0, 0), e12=None, e13=None, e23=None):
    """Three diagonal scalars, then the octonion entries at (1,2), (1,3), (2,3)."""
    v = list(diag) + [0] * 24
    for slot, entry in enumerate((e12, e13, e23)):
        if entry is not None:
            v[3 + 8 * slot : 11 + 8 * slot] = entry
    return v


UPPER4 = [
    [1, 2, -1, 1, 0, 3, 1, 2, 0, 0, -1, 1, 0, 0, 0, 2],
    [2, 0, 1, -2, 0, 1, 1, 0, 0, 0, 2, 1, 0, 0, 0, -1],
]


def cyclic_pair(n):
    first = [1 if k == 0 else 0 for k in range(n * n)]
    cyc = [0] * (n * n)
    for i in range(n - 1):
        cyc[i * n + i + 1] = 1
    cyc[(n - 1) * n] += 1
    return [first, cyc]


ZOO = {
    "octonion-q": ("octonion", "--field", "Q"),
    "mat4-q": ("matrix", "--field", "Q", "--n", "4"),
    "albert-q": ("albert", "--field", "Q"),
    "etale5-f2": ("split-etale", "--field", "F2", "--n", "5"),
    "etale4-f3": ("split-etale", "--field", "F3", "--n", "4"),
    "mat2-f2": ("matrix", "--field", "F2", "--n", "2"),
    "mat2-f3": ("matrix", "--field", "F3", "--n", "2"),
}

PEIRCE = [
    albert_element((1, 0, 0)),
    albert_element((0, 1, 0)),
    albert_element(e12=OCT_ONE),
    albert_element(e23=OCT_ONE),
] + [albert_element(e13=g) for g in OCT_GENS]
HERMITIAN_MAT2 = [
    albert_element((1, -1, 2), [1, 2, 0, -1] + [0] * 4, [0, 1, 1, 0] + [0] * 4, [2, 0, 0, 1] + [0] * 4),
    albert_element((0, 1, 1), [0, 0, 1, 0] + [0] * 4, [1, 0, 0, 0] + [0] * 4, [0, -1, 2, 0] + [0] * 4),
]

# (algebra, tuple, unital)
CASES = {
    "octonion-gen": ("octonion-q", OCT_GENS, False),
    "octonion-gen-unital": ("octonion-q", OCT_GENS, True),
    "octonion-ref": ("octonion-q", [[1, 2, -1, 0, 0, 0, 0, 0], [0, 1, 1, 2, 0, 0, 0, 0]], False),
    "octonion-ref-unital": ("octonion-q", [[1, 2, -1, 0, 0, 0, 0, 0]], True),
    "mat4-gen": ("mat4-q", cyclic_pair(4), False),
    "mat4-gen-unital": ("mat4-q", cyclic_pair(4), True),
    "mat4-ref": ("mat4-q", UPPER4, False),
    "mat4-ref-unital": ("mat4-q", UPPER4[:1], True),
    "mat4-ref-one": ("mat4-q", [[1, 2, 0, 0, 0, 3, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0]], False),
    "albert-gen": ("albert-q", PEIRCE, False),
    "albert-gen-unital": ("albert-q", PEIRCE, True),
    "albert-ref": ("albert-q", HERMITIAN_MAT2, False),
    "albert-ref-unital": ("albert-q", HERMITIAN_MAT2, True),
    "etale5-f2-gen": ("etale5-f2", [[1, 0, 1, 0, 1], [0, 1, 1, 0, 0], [0, 0, 0, 1, 1]], False),
    "etale5-f2-ref": ("etale5-f2", [[1, 1, 0, 0, 1], [0, 1, 1, 0, 1]], False),
    "etale5-f2-ref-unital": ("etale5-f2", [[1, 0, 1, 0, 1], [0, 1, 1, 0, 0]], True),
    "etale4-f3-gen-unital": ("etale4-f3", [[0, 1, 2, 0], [0, 0, 1, 1]], True),
    "etale4-f3-ref": ("etale4-f3", [[1, 2, 2, 0]], False),
    "mat2-f2-gen": ("mat2-f2", cyclic_pair(2), False),
    "mat2-f2-ref-unital": ("mat2-f2", [[1, 1, 0, 1]], True),
    "mat2-f3-gen-unital": ("mat2-f3", [[1, 1, 0, 2], [0, 0, 1, 0]], True),
    "mat2-f3-ref": ("mat2-f3", [[1, 2, 0, 1], [2, 1, 0, 0]], False),
}

# sha256 of the stdout line of each case
DIGESTS = {
    "albert-gen": "04e22cbef89143bf466b2246f57fc9cb49e3062dbe2eab51a47ec2ba940de33d",
    "albert-gen-unital": "0fdc48d51e45e70d479c59898d4371934ec0a7f4f1c75c28ed0a359dad7b680f",
    "albert-ref": "89a2265d883394a76bed47410355c39f28aa9a0672539cfe8d3372b5394d5573",
    "albert-ref-unital": "316c84644214801551248a4e610dd694f777d46a52fa9e337090df796f995377",
    "etale4-f3-gen-unital": "f35a04773c512d9af99d0ded13051cc0cf5026123a12c77341afaf9c92c9e62e",
    "etale4-f3-ref": "ed59083ecfa32fe1b450d37e589c55088d54242dadc7fe7d2313bf54ebd687dd",
    "etale5-f2-gen": "52b4b0e73df9d846384aaca603bf6331881a93d178b5eca6ebfefae6c4cd9807",
    "etale5-f2-ref": "3ad1973be683f8d3124e746a0eb94c3298c5884972e675c4c7573abc6bbcd465",
    "etale5-f2-ref-unital": "d17c14956fdb9fa8e4912323625d34b2bb1f1f465da796c7b6d846a20ccd2e06",
    "mat2-f2-gen": "600a44cb2a014157421653d1a54d2ec37407831cc0204112136578d293690d14",
    "mat2-f2-ref-unital": "2580e2c6d6d43074c564f17507be7e6a802f08d25683912bfe5ace675e771eda",
    "mat2-f3-gen-unital": "2f1dd77ebe5689951b9e4b38e033c3ed161ad787f7962d7efa9daaaacd7910b7",
    "mat2-f3-ref": "3ef1a2d91daf1a3f1c20c44029ea3adb08d72daf424231313941fde643bb169d",
    "mat4-gen": "0e9f6bdf0aa3f02dc3b0af246e08ce85a65b06e540907f6d2eda64ee169dbf6a",
    "mat4-gen-unital": "4eb3bee15d0055280705742b3bfc911084d8c5123c0f92a809b7e3285dff8dd8",
    "mat4-ref": "733bb7edc1f81d846976db5affef589f0f7dc64c326e0c8520829aafa677f65c",
    "mat4-ref-one": "e9e4c14170717246cdf3b8a281aac11282cf56e06a060dc77c3cb0363bbc71f5",
    "mat4-ref-unital": "902d568c332ce54c1ff453428a0eb2e0fe7321dcf444e7afb60877f95dd20d9e",
    "octonion-gen": "d500fa66e3c2677f0c3c57d105e94e545f76f50ea462ca79d70ef25cac898d7b",
    "octonion-gen-unital": "123e44a12afcf85426decd9c6d207b8aaa7b9a928c0d111855842fb517bf3c54",
    "octonion-ref": "f9d64c0e5dffba9e1ed021aae09bfe60f2b587533a0b60e8786bbb6effa4529a",
    "octonion-ref-unital": "00a6a074f1e1ef1568bab411eb176dd6cf55f96fb79eec00bdaa8356653f72c8",
}

# sha256 of the stdout of `algen zoo <family> --field <field>`
ZOO_DIGESTS = {
    ("albert", "F3"): "349ed816d410431aa8d96398e731e02b992f3793b2332b585b6d5c3ea7c1fcd7",
    ("albert", "F5"): "5de85c0841f5cae89ff41c3d1d961bc6b17b03cceb339fcaa7506efced30fb4c",
    ("albert", "F7"): "699742ffd9db56f33a84d92b4650f433fad846830047720078c40f1f6b95e1e7",
    ("albert", "Q"): "bc658d1c46bb8cd31eccd6442131b5a7ae1caba01832af6fabd48b960368f004",
    ("octonion", "F2"): "9abdd9b0e313e96a6863f39d3f551cbcfd053ff006b2a1e737a054070262d14d",
    ("octonion", "F3"): "5f214a96fbc356bf01b53706edbf33fbc1fbcd8a86c6c44b883eb11fbe9b17f9",
    ("octonion", "F5"): "7b2697754a11a897cd6556ed2336a44cc167122e847ec1c30ce1b4b7d03efe74",
    ("octonion", "Q"): "173c6cdf9ec80be09edb8288a258509aedf8d4e44715ad0e1c2070f09cc53bb2",
    ("quaternion", "F2"): "cba8c22a492d48bbdd89be03bf908831db6fe3639dea270c0812eb0b87b31bde",
    ("quaternion", "F3"): "d4122030616e133dba5dca7a4dabc2f03f47cc144dc3ebcaa4191e54a6af881e",
    ("quaternion", "F5"): "2e96ef387c90577c976df0d32359f606ddcfb88751581107021ae8ee06c00f50",
    ("quaternion", "Q"): "f61ba80074612a5e7d8af6715db968b0aa565109788ac114e67c737611e184fa",
}


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    assert code in (0, 1), err
    return code, out


@pytest.fixture(scope="module")
def algebra_paths(tmp_path_factory):
    return tmp_path_factory.mktemp("golden")


def algebra_path(folder, name, capsys):
    path = folder / f"{name}.json"
    if not path.exists():
        code, out = run(capsys, "zoo", *ZOO[name])
        path.write_text(out, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("case", sorted(CASES))
def test_check_output_is_byte_identical(case, algebra_paths, capsys):
    name, rows, unital = CASES[case]
    path = algebra_path(algebra_paths, name, capsys)
    argv = ["check", path, "--tuple", json.dumps([[str(x) for x in v] for v in rows])]
    code, out = run(capsys, *argv + (["--unital"] if unital else []))
    doc = json.loads(out)
    assert code == (0 if doc["closure_dim"] == doc["ambient_dim"] else 1)
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[case]


@pytest.mark.parametrize("family, field", sorted(ZOO_DIGESTS))
def test_zoo_output_is_byte_identical(family, field, capsys):
    code, out = run(capsys, "zoo", family, "--field", field)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ZOO_DIGESTS[family, field]


# sha256 of the stdout of `algen zoo <arguments>` for sized families
ZOO_SIZED_DIGESTS = {
    ("split-etale", "--field", "Q", "--n", "4"): "ff371e051a5de0452a11518f1c1414646095159ed7d8e59e6be89db76340bc70",
    ("split-etale", "--field", "F5", "--n", "4"): "d4d4cec17f5f9d4c666589967df4bfbf2998355db58194368a5f8208f4095537",
    ("matrix", "--field", "F5", "--n", "3"): "10ff90340df58162a780568d8a60dd34972df4a6d1bf1533d28ae2ddeb92bfe5",
    ("matrix-z", "--n", "3"): "01adda8421a8ca7938a691a18f39b1ff935165dcdd01e101c8d1a3ab523906c0",
    ("split-etale-z", "--n", "4"): "a2abf4e29f562f9ee6c4d6dde44f650c14e2fadc57fd1afc82ab8612fb1a2200",
}


@pytest.mark.parametrize("zoo_args", sorted(ZOO_SIZED_DIGESTS), ids=lambda a: "-".join(x.lstrip("-") for x in a))
def test_zoo_sized_output_is_byte_identical(zoo_args, capsys):
    code, out = run(capsys, "zoo", *zoo_args)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ZOO_SIZED_DIGESTS[zoo_args]


# sha256 of the stdout of `algen zoo <arguments> --emit generators`
GENERATOR_DIGESTS = {
    ("matrix", "--field", "F3", "--n", "3"): "638ff1fb062f1b529ccad4818df9dc797fcf525ce904292db625dda722c94ad4",
    ("split-etale", "--field", "F2", "--n", "5"): "0c315e1fc54eef33504fe802ec1a75f699a175f8bc9909e39976047ded9b76f1",
    ("split-etale", "--field", "F3", "--n", "4", "--unital"): (
        "9c0b36bdfd50985c40aa8652c96592571d37e2fccf4f077674dbc47ae3596252"
    ),
    ("split-etale", "--field", "Q", "--n", "4"): "a02967cd8efd9f203a03f2472b19654873f5efd290674fba6acb0346b5690b15",
    ("octonion", "--field", "Q"): "0b8eef5dd14d7280cceeebe8f38a1b5c7f5a3b75887634727181bd43499450ce",
    ("albert", "--field", "Q"): "95769824707e1896f5e235172716d262361684ccfaf69024366b9f9ed94eb617",
    ("albert", "--field", "F3"): "2a91e670a20ec438a14e60c0b5851f2105c4bd9b35696a2197eb218c2eaa7f30",
}


@pytest.mark.parametrize("zoo_args", sorted(GENERATOR_DIGESTS), ids=lambda a: "-".join(x.lstrip("-") for x in a))
def test_zoo_generators_output_is_byte_identical(zoo_args, capsys):
    code, out = run(capsys, "zoo", *zoo_args, "--emit", "generators")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GENERATOR_DIGESTS[zoo_args]


# (zoo arguments, command, command arguments after the algebra path)
KIND_CASES = {
    "mingen-mat2-f2-unital": (("matrix", "--field", "F2", "--n", "2"), "mingen", ("--unital",)),
    "mingen-etale4-f3": (("split-etale", "--field", "F3", "--n", "4"), "mingen", ()),
    # the odd-p walk with a hit at a nonzero index, F_2^5 refuting n = 2
    # over many spans before its hit at n = 3, and a unital odd-p walk
    "mingen-mat2-f3": (("matrix", "--field", "F3", "--n", "2"), "mingen", ()),
    "mingen-etale5-f2": (("split-etale", "--field", "F2", "--n", "5"), "mingen", ()),
    "mingen-etale3-f3-unital": (("split-etale", "--field", "F3", "--n", "3"), "mingen", ("--unital",)),
    "bad-primes-etale3-z": (("split-etale-z", "--n", "3"), "bad-primes", ("--tuple", '[["1","2","3"]]')),
    "check-etale3-z-ref": (("split-etale-z", "--n", "3"), "check", ("--tuple", '[["1","2","3"]]')),
    "check-etale3-z-gen": (
        ("split-etale-z", "--n", "3"),
        "check",
        ("--tuple", '[["1","0","0"],["0","1","0"]]'),
    ),
    "lift-etale3-z": (("split-etale-z", "--n", "3"), "forster-lift", ("--n", "2")),
    "lift-zero-z-3-0": (("zero-z", "--factors", "3,0"), "forster-lift", ("--n", "2")),
    "lift-zero-z-2-2-failure": (("zero-z", "--factors", "2,2"), "forster-lift", ("--n", "1")),
    # lifts whose first step searches the prime 2 from the empty prefix,
    # the search that the local requirement already made
    "lift-mat2-z": (("matrix-z", "--n", "2"), "forster-lift", ("--n", "2")),
    "lift-mat3-z": (("matrix-z", "--n", "3"), "forster-lift", ("--n", "2")),
    "lift-etale5-z": (("split-etale-z", "--n", "5"), "forster-lift", ("--n", "3")),
}

# sha256 of the stdout of each per-kind case
KIND_DIGESTS = {
    "bad-primes-etale3-z": "4e959bc12cd0de97e07584939da555e1c16f1a7224b32d0f14b7a2acf6379b65",
    "check-etale3-z-gen": "73af8769416266180b3f9b392ccca67f6c3450f0be0c9712082a69d6729e1e6b",
    "check-etale3-z-ref": "fb55d8cc535977b88051b653442b3c8c7106eb198d5e334174835e0f3394a1b3",
    "lift-etale3-z": "893931eb13ecf3f6ef2205feab835aa97692dd446f24054c08be4dcb38021f22",
    "lift-etale5-z": "01471ef8cbe0d51851d7343f0679cb94a4b03daed4c715ccb78806d90bbcc7f6",
    "lift-mat2-z": "18a3151f949051bd2a6197f1843320e8f725b7d5ea60e84016e3c53b089e1e4b",
    "lift-mat3-z": "91aa86d498d5fae6fb83eb92a3478d337a2d43b852e8cf0749c0b2ca78736ea4",
    "lift-zero-z-2-2-failure": "2bddfa1209eddc5d99c5125948b9100215a32487af1bb779ce8eb433ab8b8fc4",
    "lift-zero-z-3-0": "129e8af23a4e4c5b9a52445e7a2e064aa21607d37538b7d42405f8db80e58562",
    "mingen-etale3-f3-unital": "a0406c0b59819d5766126941b483d58193dd5bab62d9b97884038f31b581f0e0",
    "mingen-etale4-f3": "bd78bc90a490185cc46e5940e2ef14b3a4ccef62da55332d0a22095543fad544",
    "mingen-etale5-f2": "516da10548a7f3472fd6ff1b6d3c1336530f1705c5f8d2012fc348823f6823c1",
    "mingen-mat2-f3": "f96a4eeecc78a4a1535eb8e677fe38992f8306664bac47f03dbf00ac847392a2",
    "mingen-mat2-f2-unital": "d2695b23de639d1a35fec7a21d49f0a79f6442498a5d059714dfa31d3e689ae9",
}


@pytest.mark.parametrize("case", sorted(KIND_CASES))
def test_certificate_kind_output_is_byte_identical(case, tmp_path, capsys):
    zoo_args, command, args = KIND_CASES[case]
    code, out = run(capsys, "zoo", *zoo_args)
    path = tmp_path / "algebra.json"
    path.write_text(out, encoding="utf-8")
    code, out = run(capsys, command, str(path), *args)
    assert hashlib.sha256(out.encode()).hexdigest() == KIND_DIGESTS[case]


# Every scalar spelling the parser accepts, in the coefficients, the tuple
# and (through parse_int) the dimension and an index: a sign, surrounding
# spaces, an unreduced fraction, a signed zero, a decimal point, an
# exponent and a non-ASCII digit.  The row (0, 0) -> 0 repeats, so its
# coefficients are summed.  Pinned before plain decimal integers stopped
# going through Fraction.
SPELLED_ENTRIES = [
    ["0", "0", "0", "+3"],
    ["0", "1", "1", " 7 "],
    ["1", "0", "1", "2/4"],
    ["1", "1", "2", "-0"],
    ["1", "1", "2", "0.5"],
    ["2", "2", "0", "1e1"],
    ["0", "2", "٢", "-1"],
    ["2", "0", "2", "٣"],
    ["0", "0", "0", "-1"],
]
SPELLED_TUPLE = [["+3", " 7 ", "2/4"], ["-0", "0.5", "1e1"], ["-1", "٣", "1"]]

# sha256 of canonical_json(serialize_algebra(parsed)) and of the `check` stdout
SPELLED_DIGESTS = {
    "Q": (
        "926341117d55deca4fc7519d1e5e7a2b56478fa16010c0a2482248db2b4a02e4",
        "518ffdb25d89f58f427555e27eae742fdbb83d69371fde6daea4ca5f12ae653f",
    ),
    "F3": (
        "2a05bfe7487a3994c7626c5284665ed1593aa89b6699eaa83fa31f7d211d7dad",
        "888cbd51532e211897a8dd802b565465df1896001bb597e3fbed534cc4ac7359",
    ),
}


@pytest.mark.parametrize("base", sorted(SPELLED_DIGESTS))
def test_scalar_spellings_parse_as_pinned(base, tmp_path, capsys):
    doc = {
        "base": base,
        "dim": "+3",
        "format": "algen-algebra",
        "ops": [{"arity": "2", "entries": SPELLED_ENTRIES, "role": "product"}],
        "version": "1",
    }
    serialized = canonical_json(serialize_algebra(parse_algebra(doc).algebra))
    path = tmp_path / "spelled.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out = run(capsys, "check", str(path), "--tuple", json.dumps(SPELLED_TUPLE))
    digests = (hashlib.sha256(serialized.encode()).hexdigest(), hashlib.sha256(out.encode()).hexdigest())
    assert digests == SPELLED_DIGESTS[base]


# mingen searches whose attempts mix exhaustive and random sizes, under a
# small budget: (zoo arguments, mingen arguments, exit code, sha256 of stdout).
# Pinned before the report stopped keeping a per-size record of its own.
MINGEN_BUDGET_CASES = {
    # sizes 0 and 1 refuted exhaustively, then a random hit: certified
    "mat2-f2-random-hit": (
        ("matrix", "--field", "F2", "--n", "2"),
        ("--max-exhaustive", "16", "--trials", "50"),
        0,
        "fffca8d4021dbe6cb8a3ee930ab5afecec41592ae19998c166dcf8aa0ca2932c",
    ),
    # size 1 sampled at random without a hit: not certified
    "mat2-f2-random-miss": (
        ("matrix", "--field", "F2", "--n", "2"),
        ("--max-exhaustive", "1", "--trials", "1"),
        2,
        "5dd402e84ec4cb96d65338b45dacda3e265c5b96618a49ca8ee47bb851d0cf1a",
    ),
    # no size yields a tuple: no certificate and no upper bound
    "zero3-f2-none": (
        ("zero", "--field", "F2", "--r", "3"),
        ("--max-exhaustive", "1", "--trials", "1", "--seed", "1"),
        2,
        "7b1e88e15065be01cf9bd40fe86660cad078e3a195ee408387a7f69abbcb6745",
    ),
}


@pytest.mark.parametrize("case", sorted(MINGEN_BUDGET_CASES))
def test_mingen_budget_output_is_byte_identical(case, tmp_path, capsys):
    zoo_args, args, expected, digest = MINGEN_BUDGET_CASES[case]
    code, out = run(capsys, "zoo", *zoo_args)
    path = tmp_path / "algebra.json"
    path.write_text(out, encoding="utf-8")
    code = main(["mingen", str(path), *args])
    out, err = capsys.readouterr()
    assert code == expected, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    cert = tmp_path / "mingen.json"
    cert.write_text(out, encoding="utf-8")
    assert main(["verify-cert", str(path), str(cert)]) == 0
    assert json.loads(capsys.readouterr().out) == {"detail": "ok", "kind": "mingen", "ok": True}
