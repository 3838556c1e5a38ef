"""
The public surface of the package, pinned.

Each module's public functions and classes must be exactly the names
kept below, and the README's "Library API" section must list exactly
those names for that module.  A name that only the tests use belongs in
``tests/oracles.py``; a new public name is added here, to the README,
and to a caller in the package, an acceptance criterion or the library
example.  A kept name that none of those reads is named in ``UNREAD``
with the reason it stays.
"""
import ast
import re
import warnings
from pathlib import Path

import pytest

import matchdescents

PACKAGE = Path(matchdescents.__file__).parent
README = Path(__file__).resolve().parent.parent / "README.md"
ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")

KEPT = {
    "perm": [
        "ParseError", "is_perm", "check_perm", "identity", "DescentSet", "format_set", "des", "cellini_cdes",
        "fixed_points", "cycles", "cycle_type", "is_involution", "conjugate_w0", "standardize", "picker",
        "placements", "shuffles", "shuffle_sets", "enumerate_sn", "parse_one_line", "format_one_line",
        "parse_cycles", "format_cycles",
    ],
    "matching": [
        "Matching", "matching", "to_involution", "from_involution", "des", "mdes", "cmdes", "rotate",
        "crossing_nesting", "crossing_number", "nesting_number", "enumerate_matchings", "enumerate_all_matchings",
        "count_matchings", "parse_matching", "format_matching",
    ],
    "tableau": [
        "check_shape", "height", "transpose_shape", "odd_cols", "partitions", "StandardTableau", "from_rows", "des",
        "reverse_rs_insert", "rs_pair", "rs_pair_q", "rs_inverse", "q_inverse_shuffle", "enumerate_syt",
        "enumerate_syt_nk", "parse_tableau", "format_tableau", "parse_shape", "format_shape",
    ],
    "oscillating": [
        "OscillatingTableau", "validate_shapes", "sundaram", "sundaram_inverse", "transpose", "chen_iota",
        "kim_des", "parse_oscillating", "format_oscillating",
    ],
    "bijection": [
        "ShuffleElement", "res", "emb", "phi", "q_map", "iota_hat", "iota_hat_inverse", "h_map", "h_map_inverse",
    ],
    "cyclic": ["transport_involution", "transport_syt", "classify_escherian", "CdesReport", "orbits"],
    "symfun": [
        "multiset_diff", "VerifyResult", "schur_descent_multiset", "lhs_main0", "rhs_main0", "verify_main0",
        "verify_lemma_main1", "gessel_class", "gessel_pairs", "verify_gessel_all", "verify_bijection",
        "verify_cdes_k", "Identity", "resolve_params", "run_identity", "verify",
    ],
    "cli": [
        "UsageError", "InternalError", "cmd_stats", "cmd_map", "cmd_enum", "cmd_orbits", "cmd_verify",
        "build_parser", "main",
    ],
    "__init__": [],
    "__main__": [],
}

# Kept names with no reader in the package, the acceptance criteria or the
# library example, and why each stays public.
UNREAD = {
    ("cyclic", "transport_syt"): "cDes and p on one tableau, the paper's map on SYT; verify walks whole classes",
    ("symfun", "schur_descent_multiset"): "one Schur function in the fundamental basis, the paper's own object",
    ("symfun", "lhs_main0"): "main0's left side keyed by descent sets; verify_main0 compares the masks directly",
    ("symfun", "rhs_main0"): "main0's right side keyed by descent sets; verify_main0 compares the masks directly",
}


def defined_public_names(name):
    """The public functions and classes defined at the top level of the
    module's source, read without importing it (``__main__`` runs the CLI)."""
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    return [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def readme_section(title):
    text = README.read_text()
    start = text.index(f"## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start : end if end != -1 else len(text)]


def test_every_module_is_pinned():
    assert sorted(path.stem for path in PACKAGE.glob("*.py")) == sorted(KEPT)


@pytest.mark.parametrize("name", sorted(KEPT))
def test_module_compiles_without_warnings(name):
    # start-up compiles the package from source under PYTHONDONTWRITEBYTECODE=1,
    # so a SyntaxWarning here would print on every run of the command line
    path = PACKAGE / f"{name}.py"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(), str(path), "exec")


def test_every_module_parses_at_the_python_floor():
    """Every module's syntax is that of the oldest Python that
    ``pyproject.toml`` admits.  This checks syntax only: a library API newer
    than the floor passes unseen."""
    pyproject = (README.parent / "pyproject.toml").read_text()
    floor = tuple(map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject).groups()))
    for path in sorted(PACKAGE.glob("*.py")):
        ast.parse(path.read_text(), str(path), feature_version=floor)
    with pytest.raises(SyntaxError):  # the check sees syntax past the floor
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=floor)


@pytest.mark.parametrize("name", sorted(KEPT))
def test_public_names_are_the_kept_ones(name):
    assert defined_public_names(name) == KEPT[name]


@pytest.mark.parametrize("name", sorted(n for n, kept in KEPT.items() if kept))
def test_readme_lists_the_kept_names(name):
    (line,) = re.findall(rf"^- `{name}`: (.*(?:\n  .*)*)", readme_section("Library API"), re.M)
    assert sorted(re.findall(r"`(\w+)`", line)) == sorted(KEPT[name])


def test_readme_library_example_runs():
    (code,) = re.findall(r"```python\n(.*?)```", readme_section("Library example"), re.S)
    exec(compile(code, "README.md", "exec"), {})


def reads(source, module=None):
    """(module, top-level definition, name, bare) for each name that
    ``source`` reads: a bare name, which counts only inside its own
    ``module``, an attribute or an imported name."""
    out = set()
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.ImportFrom):
                names, bare = [alias.name for alias in node.names], False
            elif isinstance(node, (ast.Name, ast.Attribute)):
                bare = isinstance(node, ast.Name)
                names = [node.id if bare else node.attr]
            else:
                continue
            out.update((module, getattr(top, "name", None), name, bare) for name in names)
    return out


def test_every_kept_name_has_a_reader():
    (example,) = re.findall(r"```python\n(.*?)```", readme_section("Library example"), re.S)
    found = reads(example) | reads(ACCEPTANCE.read_text())
    for path in PACKAGE.glob("*.py"):
        found |= reads(path.read_text(), path.stem)
    unread = {
        (module, name)
        for module, kept in KEPT.items()
        for name in kept
        if not any(
            read == name and (where, top) != (module, name) and (not bare or where == module)
            for where, top, read, bare in found
        )
    }
    assert unread == set(UNREAD)
