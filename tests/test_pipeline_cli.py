import hashlib
import json
import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpcodes.cli import main
from bpcodes.errors import AlistTruncated, BpcodesError, BundleCorrupt, RecipeInvalid
from bpcodes.f2la import F2Matrix
from bpcodes.pipeline import Recipe, build_bundle, load_and_validate_bundle


def test_recipe_validation_lps():
    r = Recipe(graph="lps", p=5, q=13).validated()
    assert r.ell == 13
    with pytest.raises(RecipeInvalid):
        Recipe(graph="lps", p=5, q=29).validated()  # legendre(5,29) = +1
    with pytest.raises(RecipeInvalid):
        Recipe(graph="lps", p=13, q=5).validated()  # q too small
    with pytest.raises(RecipeInvalid):
        Recipe(graph="lps", p=5, q=13, ell=7).validated()
    with pytest.raises(RecipeInvalid):
        Recipe(graph="nonsense").validated()


def test_reference_constants_rejected():
    from bpcodes.errors import CapExceeded

    r = Recipe(graph="lps", p=401, q=997)
    with pytest.raises((RecipeInvalid, CapExceeded)):
        from bpcodes.pipeline import build_instance

        build_instance(r)


def test_toy_bundle_roundtrip(tmp_path):
    r = Recipe(graph="cycle:9", ell=3, local="rep:2")
    res = build_bundle(r, str(tmp_path))
    assert res.params["N"] == 18
    assert res.params["K_logical"] == 1
    assert res.params["gauge"] == 1
    assert (tmp_path / "hx.alist").exists()
    assert (tmp_path / "hz.alist").exists()
    assert (tmp_path / "logicals_z.txt").exists()
    assert (tmp_path / "gauge_z.txt").exists()
    params = load_and_validate_bundle(str(tmp_path))
    assert params["k_homology"] == 2


def test_bundle_reproducible(tmp_path):
    r = Recipe(graph="cycle:9", ell=3, local="rep:2")
    a = build_bundle(r, str(tmp_path / "a"))
    b = build_bundle(r, str(tmp_path / "b"))
    assert a.params["bundle_hash"] == b.params["bundle_hash"]


def test_bundle_tamper_detected(tmp_path):
    from bpcodes.errors import BpcodesError

    r = Recipe(graph="cycle:9", ell=3, local="rep:2")
    build_bundle(r, str(tmp_path))
    p = tmp_path / "params.json"
    params = json.loads(p.read_text())
    params["k_homology"] = 5
    p.write_text(json.dumps(params))
    with pytest.raises(BpcodesError):
        load_and_validate_bundle(str(tmp_path))


def test_cli_build_toy(tmp_path, capsys):
    rc = main(
        [
            "build",
            "--graph",
            "cycle:9",
            "--ell",
            "3",
            "--local",
            "rep:2",
            "--out",
            str(tmp_path),
        ]
    )
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["N"] == 18 and out["K_logical"] == 1


def test_cli_invalid_recipe_exit_code(tmp_path, capsys):
    rc = main(["build", "--p", "5", "--q", "29", "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("flag", [["--jobs", "2"], ["--labeling", "search"]])
def test_cli_build_rejects_removed_flags(tmp_path, capsys, flag):
    argv = ["build", "--graph", "cycle:9", "--ell", "3", "--local", "rep:2"]
    with pytest.raises(SystemExit) as exc:
        main(argv + flag + ["--out", str(tmp_path)])
    assert exc.value.code == 2


def test_cli_cap_exit_code(tmp_path, capsys):
    rc = main(["build", "--p", "401", "--q", "997", "--out", str(tmp_path)])
    assert rc in (2, 3)


def test_cli_spectrum(capsys):
    rc = main(["spectrum", "--graph", "cycle:5", "--graph", "complete:4"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "graph,n,s,lambda2,ramanujan_bound"
    assert lines[1].startswith("cycle:5,5,2,")
    assert lines[2].startswith("complete:4,4,3,-1.000000")


def test_cli_verify_suite(capsys):
    rc = main(["verify", "--suite", "toric"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report[0]["suite"] == "toric" and report[0]["ok"]


def test_cli_verify_unknown_suite():
    with pytest.raises(KeyError):
        main(["verify", "--suite", "bogus"])


@pytest.mark.parametrize(
    "argv",
    [
        ["build", "--graph", "cycle:abc", "--ell", "3", "--local", "rep:2"],
        ["spectrum", "--graph", "lps:5"],
        ["spectrum", "--graph", "cycle:x"],
    ],
    ids=["build-cycle-abc", "spectrum-lps-5", "spectrum-cycle-x"],
)
def test_cli_malformed_graph_spec_exit_code(tmp_path, capsys, argv):
    out = ["--out", str(tmp_path)] if argv[0] == "build" else []
    assert main(argv + out) == 2
    assert "invalid recipe: malformed" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["lps:5,4", "cycle:0", "cycle:2", "complete:2"])
def test_cli_spectrum_rejects_out_of_range_graph_spec(capsys, spec):
    # p = 4 is not prime; a second eigenvalue needs at least 3 vertices
    assert main(["spectrum", "--graph", spec]) == 2
    assert "invalid recipe" in capsys.readouterr().err


def test_cli_spectrum_allows_psl_pairs(capsys):
    # (5/11) = 1: the LPS graph lives on PSL(2,11), which bpcodes build rejects
    assert main(["spectrum", "--graph", "lps:5,11"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("lps:5,11,660,6,")


def test_recipe_malformed_cycle_length_is_invalid():
    with pytest.raises(RecipeInvalid, match="malformed cycle length"):
        Recipe(graph="cycle:abc", ell=3, local="rep:2").validated()


@pytest.mark.parametrize("text", [None, "{not json", b"\xff\xfe"], ids=["missing", "malformed", "not-utf8"])
def test_unreadable_registry_is_invalid(tmp_path, capsys, text):
    from bpcodes.pipeline import load_registry

    reg_path = tmp_path / "registry.json"
    if isinstance(text, bytes):
        reg_path.write_bytes(text)
    elif text is not None:
        reg_path.write_text(text)
    with pytest.raises(RecipeInvalid, match="registry"):
        load_registry(str(reg_path))
    argv = ["build", "--graph", "cycle:9", "--ell", "3", "--local", "tiny"]
    assert main(argv + ["--registry", str(reg_path), "--out", str(tmp_path / "b")]) == 2


def test_build_eliminates_each_differential_once(tmp_path, monkeypatch):
    """One lps(5,7) build (N = 1680, above PROJECTION_CAP_DIM) eliminates d1
    and d2 once each and d2^T never. Every GF(2) elimination reads its
    matrix through ``iter_row_ints``; hz = d2^T takes rank(d2) from the
    transpose, and the vertical classes are chosen on the base."""
    read = []
    iter_row_ints = F2Matrix.iter_row_ints

    def recording(self):
        read.append(self)
        return iter_row_ints(self)

    monkeypatch.setattr(F2Matrix, "iter_row_ints", recording)
    res = build_bundle(Recipe(p=5, q=7), str(tmp_path))
    monkeypatch.undo()
    tot = res.instance.product.total
    d1, d2 = tot.differential(1), tot.differential(2)
    assert d1.cols == res.params["N"] == 1680
    assert [sum(m == d for m in read) for d in (d1, d2, d2.transpose())] == [1, 1, 0]


def test_registry_resolution(tmp_path):
    from bpcodes.pipeline import load_registry, resolve_local_spec

    reg_path = tmp_path / "registry.json"
    reg_path.write_text(json.dumps({"tiny": "rep:2", "klein-local": "hamming7"}))
    reg = load_registry(str(reg_path))
    assert resolve_local_spec("tiny", reg) == "rep:2"
    assert resolve_local_spec("rep:3", reg) == "rep:3"  # literal specs pass through


def test_cli_build_with_registry(tmp_path, capsys):
    reg_path = tmp_path / "registry.json"
    reg_path.write_text(json.dumps({"tiny": "rep:2"}))
    rc = main(
        [
            "build",
            "--graph",
            "cycle:9",
            "--ell",
            "3",
            "--local",
            "tiny",
            "--registry",
            str(reg_path),
            "--out",
            str(tmp_path / "bundle"),
        ]
    )
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["N"] == 18


# -- bundle row files and corrupted bundles ---------------------------

BUNDLE_FILES = ["hx.alist", "hz.alist", "logicals_z.txt", "gauge_z.txt"]


@pytest.fixture(scope="module")
def toy_bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("toy")
    params = build_bundle(Recipe(graph="cycle:9", ell=3, local="rep:2"), str(out)).params
    return out, params


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 6), st.sampled_from([1, 63, 64, 65, 130]), st.integers(0, 2**32 - 1))
def test_row_files_roundtrip(rows, cols, seed):
    # zero-width rows would be blank lines, which readers skip
    from bpcodes.pipeline import _read_rows, _write_rows

    d = np.random.default_rng(seed).integers(0, 2, (rows, cols), dtype=np.uint8)
    m = F2Matrix.from_dense(d)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "rows.txt")
        _write_rows(path, m)
        with open(path) as f:
            assert f.read() == "".join("".join(map(str, row)) + "\n" for row in d.tolist())
        assert _read_rows(path, cols) == m


EDIT_OPS = st.sampled_from(["replace", "delete", "insert", "truncate"])


def _edit_file(path, op, where, byte):
    with open(path, "rb") as f:
        raw = bytearray(f.read())
    i = where % len(raw)
    if op == "replace":
        raw[i] = byte
    elif op == "delete":
        del raw[i]
    elif op == "insert":
        raw.insert(i, byte)
    else:
        del raw[i:]
    with open(path, "wb") as f:
        f.write(raw)


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(BUNDLE_FILES),
    EDIT_OPS,
    st.integers(0, 10**6),
    st.sampled_from(list(b"0123456789 \n-x") + [0xFF]),
)
def test_corrupted_bundle_rejected(toy_bundle, name, op, where, byte):
    """Any edit of a bundle file either leaves the matrices unchanged or
    is rejected with a BpcodesError."""
    src, params = toy_bundle
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(src, tmp, dirs_exist_ok=True)
        _edit_file(os.path.join(tmp, name), op, where, byte)
        try:
            reloaded = load_and_validate_bundle(tmp)
        except BpcodesError:
            return
        assert reloaded == params


@settings(max_examples=150, deadline=None)
@given(EDIT_OPS, st.integers(0, 10**6), st.sampled_from(list(b'0123456789 \n-x{}[]":,.eE') + [0xFF]))
def test_edited_params_raise_only_package_errors(toy_bundle, op, where, byte):
    """An edited params.json either reloads or fails with a BpcodesError."""
    src, _ = toy_bundle
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(src, tmp, dirs_exist_ok=True)
        _edit_file(os.path.join(tmp, "params.json"), op, where, byte)
        try:
            load_and_validate_bundle(tmp)
        except BpcodesError:
            pass


@pytest.mark.parametrize("key", ["N", "k_homology", "K_logical", "gauge", "bundle_hash"])
def test_params_missing_key_is_corrupt(toy_bundle, key):
    src, params = toy_bundle
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(src, tmp, dirs_exist_ok=True)
        with open(os.path.join(tmp, "params.json"), "w") as f:
            json.dump({k: v for k, v in params.items() if k != key}, f)
        with pytest.raises(BundleCorrupt):
            load_and_validate_bundle(tmp)


def test_gauge_row_off_the_cycles_rejected(toy_bundle):
    """A gauge row that is not a cycle fails even under a matching hash."""
    from bpcodes.f2la import read_alist
    from bpcodes.pipeline import _bundle_hash, _read_rows, _write_rows

    src, params = toy_bundle
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(src, tmp, dirs_exist_ok=True)
        hx = read_alist(os.path.join(tmp, "hx.alist"))
        hz = read_alist(os.path.join(tmp, "hz.alist"))
        lm = _read_rows(os.path.join(tmp, "logicals_z.txt"), hx.cols)
        gm = F2Matrix.from_entries(1, hx.cols, [(0, 0)])  # one qubit: a chain with a boundary
        assert not hx.matmul(gm.transpose()).is_zero()
        _write_rows(os.path.join(tmp, "gauge_z.txt"), gm)
        with open(os.path.join(tmp, "params.json"), "w") as f:
            json.dump({**params, "bundle_hash": _bundle_hash(hx, hz, lm, gm)}, f)
        with pytest.raises(BpcodesError, match="gauge"):
            load_and_validate_bundle(tmp)


@pytest.mark.parametrize(
    "swap",
    [
        {"logical": ("hz", 0)},
        {"gauge": ("hz", 1)},
        {"logical": ("hz", 0), "gauge": ("hz", 1)},
        {"gauge": ("logical", 0)},
    ],
)
def test_representatives_dependent_on_hz_rejected(toy_bundle, swap):
    """A logical or gauge row that is a stabilizer, or repeats an earlier
    representative, is a cycle but names no new class; it fails even under
    a matching hash."""
    from bpcodes.f2la import read_alist
    from bpcodes.pipeline import _bundle_hash, _read_rows, _write_rows

    src, params = toy_bundle
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(src, tmp, dirs_exist_ok=True)
        hx = read_alist(os.path.join(tmp, "hx.alist"))
        hz = read_alist(os.path.join(tmp, "hz.alist"))
        paths = {"logical": "logicals_z.txt", "gauge": "gauge_z.txt"}
        reps = {name: _read_rows(os.path.join(tmp, path), hx.cols) for name, path in paths.items()}
        sources = {"hz": hz, **reps}
        for name, (other, i) in swap.items():
            rows = reps[name].row_ints()
            rows[0] = sources[other].row_int(i)
            reps[name] = F2Matrix.from_rows(rows, hx.cols)
            _write_rows(os.path.join(tmp, paths[name]), reps[name])
        with open(os.path.join(tmp, "params.json"), "w") as f:
            json.dump({**params, "bundle_hash": _bundle_hash(hx, hz, reps["logical"], reps["gauge"])}, f)
        with pytest.raises(BpcodesError, match=next(iter(swap)) + " representatives depend"):
            load_and_validate_bundle(tmp)

@pytest.mark.parametrize(
    "name, text, error",
    [
        ("hx.alist", "18 9\n", AlistTruncated),
        ("logicals_z.txt", "0101\n", BundleCorrupt),
        ("gauge_z.txt", "2" * 18 + "\n", BundleCorrupt),
        ("params.json", '{"N": 18, "k_homo', BundleCorrupt),
        ("params.json", "[18, 2, 1, 1]", BundleCorrupt),
    ],
)
def test_bundle_loader_names_the_fault(toy_bundle, name, text, error):
    src, _ = toy_bundle
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(src, tmp, dirs_exist_ok=True)
        with open(os.path.join(tmp, name), "w") as f:
            f.write(text)
        with pytest.raises(error):
            load_and_validate_bundle(tmp)


# -- pinned bundle files ----------------------------------------------

# SHA-256 of every file of two seeded bundles. params.json carries
# lambda2 and the beta_ho / beta_co bounds computed from it, so these pin
# them bit for bit together with the matrices and representatives.
PINNED_BUNDLES = [
    (
        Recipe(graph="cycle:9", ell=3, local="rep:2"),
        {
            "gauge_z.txt": "05d833c6dcb2dc9e826b3e9801732b16fab4b64743e56850f7463ce7ca30d7fa",
            "hx.alist": "ea9baebf7537c8b1cb4960c565c39d78d39f3bc853b53879ce06f3cacc74ab47",
            "hz.alist": "5a1ce6662f476cc6cdfb6e265970eb4cc37fc424804a395e65e70f4695b3b71e",
            "logicals_z.txt": "16475c81eeb8ebb41debe474bfea15fbcc03d00b0ddc65aa46f3aebffcda397b",
            "params.json": "bb99ebf311a168f265568ad64d0741d59f4377ddd58c2718bfd83c38bbc575b7",
        },
    ),
    (
        Recipe(graph="lps", p=5, q=13, local="gv:6,0.1,0"),
        {
            "gauge_z.txt": "3933916bd73098b8dfbceca5803f89ad7989cbd8c37c93f8eb3cc9ff55b8f4be",
            "hx.alist": "b1bbc276c54be3f276ac3a3c51b6ca4d624856aea03059ed93dd6a123c9f2de4",
            "hz.alist": "5741fb8d6c927f28aae56b2e019c3534326e0a4fede569fde26f6363046b9e30",
            "logicals_z.txt": "e7d079f24d1839edcd68475e89a6c933383a9ae317b6b3f241559d29c977dd61",
            "params.json": "3e71b745cae4e5e5f42adec4929c1bc306452c890c3a5022f58bc4561dbcda97",
        },
    ),
]


@pytest.mark.parametrize("recipe, digests", PINNED_BUNDLES, ids=["toy", "lps_5_13"])
def test_bundle_files_are_pinned(tmp_path, recipe, digests):
    build_bundle(recipe, str(tmp_path))
    got = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in sorted(os.listdir(tmp_path))
    }
    assert got == digests
