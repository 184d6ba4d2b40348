#!/usr/bin/env python3
"""Shows that every output check of the benchmark catches a corrupted output.

    python3 bench/selfcheck.py

Produces real outputs on the demo corpus (the CLI in-process, and
run_benchmark + top_k + maps), verifies that they pass every check, then
corrupts them one way at a time and verifies that the check with the
expected tag reports it, through the same check code the workloads use.
Exits 0 when every corruption is caught.
"""

from __future__ import annotations

import io
import re
import shutil
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace

import checks
import run

CLONE = checks.CLONE_REFERENCE


def cli(argv: list, out_dir) -> run.CommandOutput:
    stdout = io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
        code = sys.modules["heliobench.cli"].main(argv)
    files = run.read_files(out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    return run.CommandOutput(code, stdout.getvalue(), files, 0.0, 0)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import heliobench
    import heliobench.cli  # noqa: F401

    run.WORK.mkdir(exist_ok=True)
    workdir = run.Path(tempfile.mkdtemp(prefix="selfcheck-", dir=run.WORK))
    try:
        return selfcheck(heliobench, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def selfcheck(hb, workdir) -> int:
    demo = str(run.DEMO)
    out = workdir / "out"
    wl = run.CliDemo(0, workdir, hb)
    wl.setup(None)
    inproc = run.AllRefsDemo(0, workdir, hb)
    inproc.oracle, inproc.corpus = wl.oracle, wl.corpus

    bench = ["bench", "--input", demo, "--reference", CLONE]
    real = {
        "validate": cli(["validate", "--input", demo], out),
        "bench-json": cli(bench + ["--format", "json"], out),
        "bench-csv": cli(bench + ["--format", "csv", "--indicator", "if"], out),
        "map": cli(["map", "--input", demo, "--reference", CLONE, "--out", str(out)], out),
        "hist": cli(["hist", "--input", demo, "--out", str(out)], out),
    }
    cmds = {
        "validate": run.Command("validate", ["validate"]),
        "bench-json": run.Command("bench", ["bench-json"], CLONE, checks.ALL_CODES, "json"),
        "bench-csv": run.Command("bench", ["bench-csv"], CLONE, ("if",), "csv"),
        "map": run.Command("map", ["map"], CLONE, checks.ALL_CODES),
        "hist": run.Command("hist", ["hist"]),
    }
    results, tops, svgs = inproc.benchmark_reference(wl.corpus, CLONE)

    failures = 0

    def expect(case: str, tag: str | None, problems: list) -> None:
        nonlocal failures
        caught = any(p.startswith(tag) for p in problems) if tag else not problems
        print(f"{'ok  ' if caught else 'FAIL'} {case}: "
              f"{problems[0] if problems else 'no problem reported'}")
        failures += not caught

    def cli_case(case, key, tag, **changes):
        output = replace(real[key], **changes)
        # A fresh determinism record, so only the corruption itself is judged.
        wl.determinism = checks.Determinism()
        expect(case, tag, wl.check([cmds[key]], [output]))

    for key in real:
        cli_case(f"real {key} output passes", key, None)
    expect("real in-process output passes", None,
           inproc.check_results(CLONE, results, tops, svgs))

    v = real["validate"].stdout
    cli_case("validate: wrong record count", "validate", "[validate]",
             stdout=v.replace('"record_count": ', '"record_count": 1'))
    cli_case("exit code not 0", "validate", "[exit]", code=3)

    j = real["bench-json"].stdout
    first_gain = re.search(r'"gain": ([^,\n]+)', j)
    cli_case("bench json: NaN gain", "bench-json", "[json]",
             stdout=j[:first_gain.start(1)] + "NaN" + j[first_gain.end(1):])
    bumped = repr(float(first_gain.group(1)) + 1e-9)
    cli_case("bench json: gain off by 1e-9", "bench-json", "[gain]",
             stdout=j[:first_gain.start(1)] + bumped + j[first_gain.end(1):])
    cli_case("bench json: one indicator missing", "bench-json", "[json]",
             stdout=j[:j.rindex("{\n")])

    c = real["bench-csv"].stdout
    lines = c.splitlines(keepends=True)
    cli_case("bench csv: no header", "bench-csv", "[csv]", stdout="".join(lines[1:]))
    cli_case("bench csv: row dropped", "bench-csv", "[coverage]", stdout="".join(lines[:-1]))
    rows = [line.rstrip("\n").split(",") for line in lines[1:]]
    swapped = rows[:]
    swapped[3], swapped[4] = swapped[4], swapped[3]
    swapped = [[str(i + 1), row[1], row[2]] for i, row in enumerate(swapped)]
    cli_case("bench csv: rows out of order", "bench-csv", "[sorted]",
             stdout=lines[0] + "".join(",".join(r) + "\n" for r in swapped))
    infinite = [row[:] for row in rows]
    infinite[-1][2] = "inf"
    cli_case("bench csv: infinite gain", "bench-csv", "[finite]",
             stdout=lines[0] + "".join(",".join(r) + "\n" for r in infinite))

    full_if = list(results[0].ranking)
    skipped = full_if[:29] + [full_if[31]]  # drops the 30th and 31st most similar
    cli_case("bench csv: a more similar category left out", "bench-csv", "[topk]",
             stdout=lines[0] + "".join(f"{i + 1},{name},{gain!r}\n"
                                       for i, (name, gain) in enumerate(skipped)))

    saved = checks.CLONES
    checks.CLONES = tuple(name for name, _ in full_if[10:15])
    cli_case("bench: clones outside the IF top 10", "bench-csv", "[clones]")
    checks.CLONES = saved

    files = real["map"].files
    name = sorted(files)[0]
    svg = files[name].decode()
    one_dot_less = re.sub(r'<circle class="dot"[^>]*/>\n', "", svg, count=1)
    cli_case("map: a dot missing", "map", "[svg]", files={**files, name: one_dot_less.encode()})
    cli_case("map: SVG cut short", "map", "[svg]", files={**files, name: files[name][:-8]})
    cli_case("map: an indicator's file missing", "map", "[map]",
             files={k: v for k, v in files.items() if k != name})

    files = real["hist"].files
    name = sorted(files)[0]
    doc = files[name].decode()
    p = re.search(r'"probabilities": \[([0-9.e-]+)', doc)
    hist_off = doc[:p.start(1)] + repr(float(p.group(1)) * 1.001) + doc[p.end(1):]
    cli_case("hist: probabilities do not sum to 1", "hist", "[hist]",
             files={**files, name: hist_off.encode()})
    cli_case("hist: a file missing", "hist", "[hist]",
             files={k: v for k, v in files.items() if k != name})

    wl.determinism = checks.Determinism()
    wl.check([cmds["bench-json"]], [real["bench-json"]])
    changed = run.CommandOutput(0, j.replace(first_gain.group(1), bumped, 1), {}, 0.0, 0)
    expect("repeated op with different bytes", "[determinism]",
           wl.check([cmds["bench-json"]], [changed]))

    not_prefix = [replace(tops[0], ranking=tops[0].ranking[1:])] + tops[1:]
    expect("in-process: top_k not the ranking's prefix", "[topk]",
           inproc.check_results(CLONE, results, not_prefix, svgs))
    short = [replace(results[1], ranking=results[1].ranking[:-1])]
    expect("in-process: full ranking misses a category", "[coverage]",
           inproc.check_results(CLONE, [results[0]] + short + results[2:], tops, svgs))
    inproc.determinism = checks.Determinism()
    inproc.check_results(CLONE, results, tops, svgs)
    expect("in-process: repeated reference with a different map", "[determinism]",
           inproc.check_results(CLONE, results, tops, svgs[:2] + [svgs[2] + " "]))
    rows_off = (wl.oracle.rows + 1, results, tops, svgs)
    expect("ladder: wrong number of records loaded", "[load]",
           run.Ladder1000.check(inproc, CLONE, rows_off))

    print(f"{failures} corruption(s) not caught" if failures else "every corruption was caught")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
