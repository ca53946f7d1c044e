#!/usr/bin/env python3
"""Which functions under ``src/repro`` does anything but a test reach?

Runs every suite the repository has (tier-1 with its live tests, the
repo benchmark's tests and ``--quick`` pass, the benchmarks and the
examples) with a call-edge profiler installed in *every* interpreter
they start, then prints, per module:

* ``never``: functions no suite ran at all;
* ``tests-only``: functions that ran, but only on call paths that start
  in ``tests/`` (not reachable from any root whose caller is elsewhere).
  A call that arrives through library frames (asyncio, threading,
  importlib) counts as made by the nearest repository frame above it.

A function in either list that ``tools/reach_allow.txt`` does not name
(one ``path:qualname  category: reason`` per line) is an error: exit
status 1.  So is an entry that names no function under ``src/repro`` (a
deletion takes its entry with it), and an entry whose reason does not
start with one of the categories the list's header defines
(:data:`CATEGORIES`); an untagged entry fails before any suite runs.  An
allow-listed function that is reached is not an error.

    python3 tools/reach.py [--report FILE] [--edges DIR]

``--edges DIR`` keeps the raw per-process edge dumps in DIR; when DIR
already holds dumps, the suites are not run again.
"""

import argparse
import ast
import json
import os
import pathlib
import site
import subprocess
import sys
import tempfile
import time
from collections import defaultdict

REPO = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
ALLOW = REPO / "tools" / "reach_allow.txt"
# The reasons an entry may give, as the allow-list's header defines them.
CATEGORIES = ("repr", "adversary", "operator", "reference", "error-path",
              "roadmap")

# Loaded by every child interpreter through PYTHONUSERBASE: perf's
# harness overwrites PYTHONPATH, so a sitecustomize on it would miss the
# perf daemons.  Edges are dumped about once a second (SIGKILLed daemons
# never run atexit) under a per-thread temp name, so two threads dumping
# at once never share a file.
PROFILER = r'''
import atexit, json, os, sys, threading, time, uuid
_REPO, _OUT, _TOKEN = %(repo)r, %(out)r, uuid.uuid4().hex[:8]
_SRC, _TESTS = _REPO + "src/repro/", _REPO + "tests/"
_category, _edges, _state = {}, set(), {"dirty": False, "last": time.monotonic()}

def _classify(code):
    name = code.co_filename
    if name.startswith("<"):
        kind = "other"
    else:
        name = os.path.abspath(name)
        kind = ("src" if name.startswith(_SRC) else "tests" if name.startswith(_TESTS)
                else "main" if name.startswith(_REPO) else "other")
    _category[code] = kind
    return kind

def _key(code):
    return [os.path.relpath(os.path.abspath(code.co_filename), _REPO),
            code.co_firstlineno, code.co_name]

def _dump():
    _state["dirty"], _state["last"] = False, time.monotonic()
    rows = [[a if isinstance(a, str) else _key(a), _key(b)] for a, b in _edges.copy()]
    stem = os.path.join(_OUT, "%%d-%%s" %% (os.getpid(), _TOKEN))
    tmp = "%%s.%%d.tmp" %% (stem, threading.get_ident())
    with open(tmp, "w") as handle:
        json.dump(rows, handle)
    os.replace(tmp, stem + ".json")

def _profile(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    if (_category.get(code) or _classify(code)) != "src":
        return
    caller = frame.f_back
    origin = "main"  # no repository frame above: an interpreter entry point
    while caller is not None:
        kind = _category.get(caller.f_code) or _classify(caller.f_code)
        if kind != "other":
            origin = caller.f_code if kind == "src" else kind
            break
        caller = caller.f_back
    edge = (origin, code)
    if edge not in _edges:
        _edges.add(edge)
        _state["dirty"] = True
    if _state["dirty"] and time.monotonic() - _state["last"] > 1.0:
        _dump()

atexit.register(lambda: _edges and _dump())
threading.setprofile(_profile)
sys.setprofile(_profile)
'''


def suites():
    py = sys.executable
    pytest = [py, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    yield "tier-1", pytest + ["tests"]
    yield "perf tests", pytest + ["perf"]
    yield "perf --quick", [py, "perf/run.py", "--quick"]
    # pytest-benchmark clears sys.setprofile during timed rounds.
    yield "benchmarks", pytest + ["benchmarks", "--benchmark-disable"]
    for example in sorted((REPO / "examples").glob("*.py")):
        yield f"examples/{example.name}", [py, str(example)]


def collect(out, scratch):
    """Run every suite with the profiler loaded into each interpreter."""
    usersite = scratch / os.path.relpath(site.getusersitepackages(), site.getuserbase())
    usersite.mkdir(parents=True)
    (usersite / "usercustomize.py").write_text(
        PROFILER % {"repo": str(REPO) + os.sep, "out": str(out)})
    (usersite / "original-user-site.pth").write_text(site.getusersitepackages() + "\n")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), PYTHONUSERBASE=str(scratch))
    for name, command in suites():
        started = time.monotonic()
        status = subprocess.run(command, cwd=REPO, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL).returncode
        print(f"ran {name}: exit {status} in {time.monotonic() - started:.0f} s",
              file=sys.stderr)


def functions():
    """(path, first line, name) -> (qualname, line count) for every def in src."""
    found = {}

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(path, first, child.name)] = (prefix + child.name,
                                                    child.end_lineno - first + 1)
                visit(child, f"{prefix}{child.name}.<locals>.", path)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", path)
            else:
                visit(child, prefix, path)

    for file in sorted(SRC.rglob("*.py")):
        visit(ast.parse(file.read_text()), "", str(file.relative_to(REPO)))
    return found


def reach(out):
    """(callees that ran, callees reachable from a root outside tests/)."""
    ran, roots, calls = set(), set(), defaultdict(set)
    for dump in out.glob("*.json"):
        for origin, callee in json.loads(dump.read_text()):
            callee = tuple(callee)
            ran.add(callee)
            if origin == "main":
                roots.add(callee)
            elif origin != "tests":
                calls[tuple(origin)].add(callee)
    product, todo = set(roots), list(roots)
    while todo:
        for callee in calls[todo.pop()] - product:
            product.add(callee)
            todo.append(callee)
    return ran, product


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--report", help="also write the report to this file")
    parser.add_argument("--edges", help="keep (or reuse) the per-process edge dumps here")
    args = parser.parse_args()
    allowed, tagged, untagged = set(), defaultdict(int), []
    for line in ALLOW.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            key, _, reason = line.partition(" ")
            if not reason.strip():
                sys.exit(f"{ALLOW.name}: no reason given for {key}")
            allowed.add(key)
            category, colon, _ = reason.strip().partition(":")
            if colon and category in CATEGORIES:
                tagged[category] += 1
            else:
                untagged.append(key)
    if untagged:
        for key in untagged:
            print(f"{ALLOW.name}: reason names no category "
                  f"({', '.join(CATEGORIES)}): {key}")
        return 1
    with tempfile.TemporaryDirectory(prefix="reach-") as scratch:
        out = pathlib.Path(args.edges or scratch + "/edges")
        out.mkdir(parents=True, exist_ok=True)
        if not any(out.glob("*.json")):
            collect(out, pathlib.Path(scratch) / "user")
        ran, product = reach(out)

    defs = functions()
    lines, counts, missing, module = [], defaultdict(lambda: [0, 0]), [], None
    for (path, line, name), (qualname, length) in sorted(defs.items()):
        if (path, line, name) in product:
            continue
        kind = "tests-only" if (path, line, name) in ran else "never"
        key = f"{path}:{qualname}"
        if key not in allowed:
            missing.append(key)
        if path != module:
            module = path
            lines.append(module)
        mark = "allowed" if key in allowed else "UNLISTED"
        lines.append(f"  {kind:<10} {mark:<8} {line:>5}  {qualname} ({length} lines)")
        counts[kind][0] += 1
        counts[kind][1] += length
    for kind, (number, length) in sorted(counts.items()):
        lines.append(f"{kind}: {number} functions, {length} lines")
    known = {f"{path}:{qualname}" for (path, _, _), (qualname, _) in defs.items()}
    stale = sorted(allowed - known)
    lines += [f"allow-listed, but no such function: {key}" for key in stale]
    lines += [f"allow-listed as {category}: {tagged[category]}"
              for category in CATEGORIES]
    lines.append(f"not in {ALLOW.name}: {len(missing)}")
    lines.append(f"in {ALLOW.name}, but not in src: {len(stale)}")
    report = "\n".join(lines)
    print(report)
    if args.report:
        pathlib.Path(args.report).write_text(report + "\n")
    return 1 if missing or stale else 0


if __name__ == "__main__":
    sys.exit(main())
