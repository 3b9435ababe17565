"""Golden outputs: the canonical stdout documents of `check` are pinned by sha256.

The hashes were taken from the CLI before the arithmetic kernels were
rewritten; any change to the closure kernel, the evaluator or the row
reducer must leave every document byte-identical (a deliberate format
change bumps FORMAT_VERSION and re-pins them).
"""

import hashlib
import json

import pytest

from algen.cli import main

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
    "albert-gen": "bac1aaffb765dc10f47ed9c9630bc202b3dc8827cadd93fc4ff6db90bdef403f",
    "albert-gen-unital": "17b7f1d9a032ad2ba513eb8e90be20d127921f14ffe204b6e0431206c234a58e",
    "albert-ref": "50dc968b5e1cceb92cd1e7358ef983a3150589d4bbb8a33288843869cb0eb9b7",
    "albert-ref-unital": "bbcdb00449bd8d228e6f7de757ea528dba9708638f1cd89274455b22c2464b8a",
    "etale4-f3-gen-unital": "f2921f3e848ffe37b6157386ca20f6e9a7d2fadf658131dc17989fe46fdbc963",
    "etale4-f3-ref": "71fdab0f30cf9c7166898d98596791807f12c6acbf6f8fb0a3daafa233fbf042",
    "etale5-f2-gen": "0ebb8c2f41363acf692888f36eeaafd4ee77d9c5d8c5cabfdf6e9b920e77f0fa",
    "etale5-f2-ref": "436f26ecde0e9def4eafec38fa42805eefe282eb7aa0d8c5b4cef4b39f5321b5",
    "etale5-f2-ref-unital": "843999a5d5658c64df6a3e49ecddd7521bf23e660f6f708dbb2dbba504844128",
    "mat2-f2-gen": "d62abad76a13265e885cf9fb2a10217999d322c424ca2a8e865ffc10a2aa1a58",
    "mat2-f2-ref-unital": "65820d110c119b0d358a6a9c1c88cabeb526df4ec8a3fa18a58ab36eaefa9c3a",
    "mat2-f3-gen-unital": "df5014d45b9eb551840d6d6c986f90097443ddedfe97165e6794078297edfb2f",
    "mat2-f3-ref": "8c35b30fa1c645fe731dc689c553be0ba03f08a64268f08eb2cbabb0e79915d9",
    "mat4-gen": "e20e7e79ebe5f888501364b6fe8d6b54f0337a768c579f9ee4f68e294398e474",
    "mat4-gen-unital": "011cc7afbbdb0f4181f3e1f2ceaadfff38c45c9f153ac837ac0fc8fd8f40938f",
    "mat4-ref": "498bd2531908006eff6259624c5d3528935d483e615f699295b9021a1f29e314",
    "mat4-ref-one": "939a6d9d92e96b2e69ffffdb412dbbc7f3a29f5d47bde1f4eb16ce3b2d8e276d",
    "mat4-ref-unital": "76cdd15c739bd84a54261c66156a52e95bdd0371321f56efa066d32dc3558140",
    "octonion-gen": "a46a45d416088e5e31a6263fbc11333a2ce2d80716602c68f85ae809c77659e0",
    "octonion-gen-unital": "bd9a71f0d6426bb6d86ee3ba55df10144a8f2e3838ec52bfe2dbd712c8ab60a2",
    "octonion-ref": "e60d5b450b844dc2889a7d5565cbed113b80071c921e4af17844a14272172d51",
    "octonion-ref-unital": "13fbfd8b899f499da5e1cfa33236b77b2bb0fd7321781b8500ec294657efc942",
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
