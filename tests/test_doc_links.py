"""Documentation link integrity.

Every relative markdown link in the repo's documentation must resolve
to a real file (and a real heading, when it carries an anchor), every
``path``-shaped inline-code reference to a repo file must point at
something that exists, and every ``ClassName.attr`` reference to a
repro class must name an attribute it has, and every keyword passed to
a repro class, in inline code or a python code block, must name a
parameter of its constructor.  CI runs this as part of
tier-1, so a rename or deletion that orphans a docs cross-reference
fails the build instead of rotting in place.
"""

import ast
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

#: The documentation set under audit: the stable top-level pages plus
#: everything in docs/.  Working files whose content a maintenance
#: process rewrites (ISSUE.md, CHANGES.md, ROADMAP.md) and retrieved
#: reference material (PAPER.md, PAPERS.md, SNIPPETS.md) may
#: legitimately mention files that do not exist yet, so they stay out.
DOC_FILES = sorted(
    [
        *(REPO_ROOT / name for name in
          ("README.md", "DESIGN.md", "EXPERIMENTS.md")
          if (REPO_ROOT / name).exists()),
        *(REPO_ROOT / "docs").glob("*.md"),
    ]
)

MARKDOWN_LINK = re.compile(r"\[[^\]^\[]*\]\(([^)\s]+)\)")

#: Inline-code references that look like repo paths, e.g.
#: ``docs/operations.md``, ``examples/quickstart.py``,
#: ``benchmarks/matrix/smoke.json`` — with an optional ``::name``
#: pytest-style suffix.  Single-segment names (``REPORT.md``) are
#: skipped: too many false positives from generated-artifact mentions.
CODE_PATH = re.compile(
    r"`((?:docs|examples|benchmarks|tests|src|\.github)"
    r"/[\w./\-]+\.\w{1,4})(?:::[\w.\-\[\]:]+)?`"
)


#: Inline code that starts with a class attribute, e.g.
#: ``ThreadIngest.insert_many`` or ``Trace.iter_chunks(n)``.
CLASS_ATTRIBUTE = re.compile(r"`([A-Z]\w*)\.(\w+)")

INLINE_CODE = re.compile(r"`([^`\n]+)`")
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.M | re.S)
DOCTEST_PROMPT = re.compile(r"^(?:>>>|\.\.\.) ?", re.M)
#: A call of a class, e.g. ``ParallelPipeline(`` but not ``np.Foo(``.
CLASS_CALL = re.compile(r"(?<![\w.])([A-Z]\w*)\(")
KEYWORD = re.compile(r"^\s*(\w+)\s*=(?!=)")


def _repro_class_attributes():
    """``{class name: attribute names}`` for every class under
    ``src/repro``, read with the AST: names bound in the class body
    (methods, properties, class attributes, dataclass fields),
    ``__slots__`` entries and every ``self.<attr>`` assigned in its
    methods, plus what it inherits from other repro classes."""
    own, bases = {}, {}
    for path in (REPO_ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            names = own.setdefault(node.name, set())
            bases.setdefault(node.name, set()).update(
                base.id for base in node.bases if isinstance(base, ast.Name)
            )
            for stmt in node.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                    names.add(stmt.name)
                targets = (
                    stmt.targets if isinstance(stmt, ast.Assign)
                    else [stmt.target] if isinstance(stmt, ast.AnnAssign)
                    else []
                )
                for target in targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
                        if target.id == "__slots__":
                            names.update(
                                elt.value for elt in ast.walk(stmt.value)
                                if isinstance(elt, ast.Constant)
                            )
            names.update(
                sub.attr for sub in ast.walk(node)
                if isinstance(sub, ast.Attribute)
                and isinstance(sub.ctx, ast.Store)
                and isinstance(sub.value, ast.Name)
                and sub.value.id == "self"
            )

    def resolve(name, seen=()):
        names = set(own[name])
        for base in bases[name] - {name, *seen}:
            if base in own:
                names |= resolve(base, (*seen, name))
        return names

    return {name: resolve(name) for name in own}


def _repro_init_parameters():
    """``{class name: parameter names of its __init__}`` for every class
    under ``src/repro``, read with the AST.  A class that takes
    ``**kwargs``, or defines no ``__init__``, adds what its repro base
    classes take; dataclasses and named tuples take their fields.  The
    value is ``None`` where that leads out of repro (``Exception``,
    ``object``), so the keywords cannot be checked."""
    own, bases = {}, {}
    for path in (REPO_ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            bases[node.name] = {
                base.id for base in node.bases if isinstance(base, ast.Name)
            }
            init = next(
                (stmt for stmt in node.body
                 if isinstance(stmt, ast.FunctionDef)
                 and stmt.name == "__init__"),
                None,
            )
            decorators = {
                getattr(dec, "id", getattr(dec, "attr", None))
                for dec in (
                    d.func if isinstance(d, ast.Call) else d
                    for d in node.decorator_list
                )
            }
            if init is not None:
                args = init.args
                own[node.name] = (
                    {arg.arg for arg in
                     args.posonlyargs + args.args[1:] + args.kwonlyargs},
                    args.kwarg is not None,
                )
            elif "dataclass" in decorators or "NamedTuple" in bases[node.name]:
                own[node.name] = (
                    {stmt.target.id for stmt in node.body
                     if isinstance(stmt, ast.AnnAssign)
                     and isinstance(stmt.target, ast.Name)},
                    False,
                )
            else:
                own[node.name] = (set(), True)

    def resolve(name, seen=()):
        names, inherits = own[name]
        if not inherits:
            return set(names)
        parents = [
            base for base in bases[name] - {name, *seen} if base in own
        ]
        if not parents:
            return None
        names = set(names)
        for base in parents:
            inherited = resolve(base, (*seen, name))
            if inherited is None:
                return None
            names |= inherited
        return names

    return {name: resolve(name) for name in own}


def _call_keywords(code: str):
    """``(class name, keyword)`` for every keyword argument of every
    ``ClassName(...)`` call in ``code``, read at the call's own bracket
    depth so nested calls keep their keywords to themselves.  A call
    cut short, as in ``Foo(kw=)``, still yields its keywords."""
    for match in CLASS_CALL.finditer(code):
        depth, top = 1, []
        for char in code[match.end():]:
            if char in "([{":
                depth += 1
            elif char in ")]}":
                depth -= 1
                if depth == 0:
                    break
            elif depth == 1:
                top.append(char)
        for argument in "".join(top).split(","):
            keyword = KEYWORD.match(argument)
            if keyword:
                yield match.group(1), keyword.group(1)


def _heading_anchors(path: Path):
    anchors = set()
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            title = line.lstrip("#").strip().lower()
            slug = re.sub(r"[^\w\- ]", "", title).replace(" ", "-")
            anchors.add(slug)
    return anchors


@pytest.mark.parametrize(
    "doc", DOC_FILES, ids=[str(p.relative_to(REPO_ROOT)) for p in DOC_FILES]
)
def test_relative_markdown_links_resolve(doc):
    broken = []
    for target in MARKDOWN_LINK.findall(doc.read_text()):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        target, _, anchor = target.partition("#")
        if not target:  # same-page anchor
            resolved = doc
        else:
            resolved = (doc.parent / target).resolve()
            if not resolved.exists():
                broken.append(target)
                continue
        if anchor and resolved.suffix == ".md":
            if anchor.lower() not in _heading_anchors(resolved):
                broken.append(f"{target}#{anchor}")
    assert not broken, (
        f"{doc.relative_to(REPO_ROOT)} has broken relative links: {broken}"
    )


@pytest.mark.parametrize(
    "doc", DOC_FILES, ids=[str(p.relative_to(REPO_ROOT)) for p in DOC_FILES]
)
def test_inline_code_path_references_exist(doc):
    broken = [
        ref for ref in CODE_PATH.findall(doc.read_text())
        if not (REPO_ROOT / ref).exists()
    ]
    assert not broken, (
        f"{doc.relative_to(REPO_ROOT)} references missing repo files: "
        f"{broken}"
    )


def test_class_attribute_references_exist():
    """Every ``ClassName.attr`` in the docs, where ``ClassName`` is a
    repro class, names an attribute the class has."""
    attributes = _repro_class_attributes()
    stale = [
        f"{doc.relative_to(REPO_ROOT)}: {cls}.{attr}"
        for doc in DOC_FILES
        for cls, attr in CLASS_ATTRIBUTE.findall(doc.read_text())
        if cls in attributes and attr not in attributes[cls]
    ]
    assert not stale, f"docs name attributes that do not exist: {stale}"


def test_class_call_keywords_name_init_parameters():
    """Every keyword of a ``ClassName(..., kw=...)`` call of a repro
    class, in inline code or a python code block of the docs, names a
    parameter its constructor takes."""
    parameters = _repro_init_parameters()
    checked, stale = 0, []
    for doc in DOC_FILES:
        text = doc.read_text()
        snippets = INLINE_CODE.findall(PYTHON_BLOCK.sub("", text)) + [
            DOCTEST_PROMPT.sub("", block)
            for block in PYTHON_BLOCK.findall(text)
        ]
        for code in snippets:
            for cls, keyword in _call_keywords(code):
                if parameters.get(cls) is None:
                    continue
                checked += 1
                if keyword not in parameters[cls]:
                    stale.append(
                        f"{doc.relative_to(REPO_ROOT)}: {cls}({keyword}=)"
                    )
    assert not stale, f"docs pass keywords no constructor takes: {stale}"
    assert checked >= 40  # the scan still finds the docs' calls


def test_the_audit_actually_covers_the_docs():
    names = {p.name for p in DOC_FILES}
    assert "README.md" in names
    # The nine docs pages enumerated in README's Documentation index.
    for page in (
        "algorithm.md", "api.md", "adaptive-thresholds.md",
        "baselines.md", "experiments-guide.md", "observability.md",
        "operations.md", "performance.md", "workloads.md",
    ):
        assert page in names, page
