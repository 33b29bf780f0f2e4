"""Which code of the `etdkf` package the shipped runs reach: each function that
no run entered, and each module's statements that never ran.

The runs are:

- every preset at full length through `etdkf.cli.main`: `presets`, then per
  preset `validate`, `run` into a temporary directory and `metrics` on that
  directory;
- perfbench's four workloads, once each at their tiny size, through
  `workloads.make(name, seed, tiny=True).repetition(...)` into a temporary
  directory; perfbench itself is only read.

Lines are recorded with `sys.settrace` and matched against the statements
and functions that `ast` finds in `src/etdkf`. A statement counts as run
when any line of its own ran (a compound statement's own lines are its
header); docstrings and other constant expressions, `global`, `nonlocal`
and `try:` lines run no code of their own and are not listed. Statements
and functions inside a function that no run entered are not listed
again. Standard library only.

"Unreached" does not mean "deletable". What no run reaches includes:

- oracles that only tests call, such as the k-NN estimator family
  (`pairwise_distances`, `kth_neighbor_distance`, `estimate_kl`), which the
  sliding detector bank is tested against;
- error paths that only malformed input reaches, such as the CSV reader's
  cell checks and `ValidationError`;
- public API that no run uses but tests cover, such as
  `graphs.is_vertex_cut` and `find_minimal_potential_sets`.

Read the list as the code that no shipped run exercises, then ask who else
calls it before deleting anything.

    python tools/traffic_lines.py
"""

import ast
import contextlib
import io
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "etdkf"
WORKLOAD_SEED = 1


def record(run):
    """Call `run()` under a tracer of the package's code: returns (lines,
    entered), the line numbers that ran per file and the (file, first line)
    of every code object entered."""
    prefix, lines, entered, local_of = str(PACKAGE), {}, set(), {}

    def on_call(frame, event, arg):
        code = frame.f_code
        local = local_of.get(code.co_filename, False)
        if local is False:   # first call into this file
            local = None
            if code.co_filename.startswith(prefix):
                add = lines.setdefault(code.co_filename, set()).add

                def local(frame, event, arg):
                    if event == "line":
                        add(frame.f_lineno)
                    return local
            local_of[code.co_filename] = local
        if local is not None:
            entered.add((code.co_filename, code.co_firstlineno))
        return local

    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(None)
    return lines, entered


def shipped_runs() -> list:
    """Run the presets and the workloads; returns the runs that failed."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from etdkf.cli import main
    import workloads

    failed = []

    def cli(*argv) -> str:   # the command's stdout; its stderr is dropped
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
        if code:
            failed.append(f"etdkf {' '.join(argv)}: exit {code}")
        return out.getvalue()

    with tempfile.TemporaryDirectory() as tmp:
        for name in cli("presets").split():
            run_dir = str(pathlib.Path(tmp) / name)
            cli("validate", "--preset", name)
            cli("run", "--preset", name, "--out", run_dir)
            cli("metrics", "--run-dir", run_dir)
        for name in workloads.WHY:
            rep_dir = pathlib.Path(tmp) / f"workload-{name}"
            rep_dir.mkdir()
            with contextlib.redirect_stdout(io.StringIO()):
                rep = workloads.make(name, WORKLOAD_SEED, tiny=True).repetition(rep_dir)
            failed += [f"workload {name}: {problem}" for problem in rep.problems]
    return failed


def survey(tree):
    """(functions, statements) of a module: each def as (first line, name
    qualified by its classes and functions, owner), each statement as (its
    own lines, its whole span, owner), where owner is the first line of the
    innermost def around it, or None."""
    functions, statements = [], []

    def visit(node, scope, owner):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.stmt, ast.excepthandler)):
                continue
            first = min([d.lineno for d in getattr(child, "decorator_list", [])] + [child.lineno])
            body = getattr(child, "body", None)
            own = range(first, (max(first, body[0].lineno - 1) if body else child.end_lineno) + 1)
            if not (isinstance(child, (ast.Global, ast.Nonlocal, ast.Try))
                    or isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant)):
                statements.append((own, range(first, child.end_lineno + 1), owner))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions.append((first, scope + child.name, owner))
                visit(child, f"{scope}{child.name}.", first)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{scope}{child.name}.", owner)
            else:
                visit(child, scope, owner)

    visit(tree, "", None)
    return functions, statements


def spans(lines) -> str:
    """Sorted line numbers as comma-separated ranges."""
    out, lines = [], sorted(lines)
    for line in lines:
        if out and line == out[-1][1] + 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in out)


def main() -> int:
    failed = []
    lines, entered = record(lambda: failed.extend(shipped_runs()))
    unentered, unrun = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        functions, statements = survey(ast.parse(path.read_text()))
        ran, key = lines.get(str(path), set()), str(path)
        missed = {first for first, _, _ in functions if (key, first) not in entered}
        unentered += [f"{path.name}:{first} {name}" for first, name, owner in functions
                      if first in missed and owner not in missed]
        dead = [span for own, span, owner in statements
                if owner not in missed and not ran.intersection(own)]
        if dead:
            unrun.append(f"{path.name} ({len(dead)}): "
                         f"{spans(set().union(*map(set, dead)))}")
    print(f"functions that no run entered ({len(unentered)}):")
    print("\n".join(f"  {line}" for line in unentered))
    print("statements that never ran, outside those functions, by module "
          "(count: lines):")
    print("\n".join(f"  {line}" for line in unrun))
    for failure in failed:
        print(f"failed: {failure}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
