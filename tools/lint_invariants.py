#!/usr/bin/env python3
"""Project-invariant linter (ISSUE 10): machine-enforces the repo
conventions that keep the reproduction deterministic and layered.

Rules (each has a stable id used in the allowlist and in self-test
fixtures):

  env-access        std::getenv / getenv / setenv / secure_getenv
                    anywhere except src/support/env.cpp — every
                    environment knob goes through support/env so the
                    parsing semantics stay identical across layers.
  unseeded-random   rand(), srand(, std::random_device, mt19937 seeded
                    from anywhere, time(nullptr)/time(0) and
                    system_clock-derived seeds — all randomness must
                    flow from support/splitmix with an explicit seed,
                    or byte-identity across runs is gone.
  naked-new         `new` / `malloc` / `calloc` / `realloc` / `free` in
                    src/ outside an allowlisted intentional leak —
                    ownership lives in containers and smart pointers.
  cout-in-lib       std::cout in src/ (library code). Experiment tables
                    render through exp/driver; diagnostics go to
                    stderr; observability is sidecar-only by contract.
  layer-dag         An #include that points UP the layer DAG
                    (obs < support < graph < {views,uxs,sim} < store <
                    cache < core < analysis < sweep < exp). The CMake
                    link graph enforces this at link time for .cpp
                    files; this rule catches header-only leaks too.
  pool-fanout       support::TaskGroup, or an assignment to
                    SweepConfig::chunk_size, in src/ outside
                    src/support and src/sweep — sweep::sweep_map is the
                    one code path that splits work into pool tasks, and
                    it derives the grain from the work.

Usage:
  tools/lint_invariants.py              lint the repo (exit 1 on findings)
  tools/lint_invariants.py --self-test  verify every rule fires on its
                                        fixture in tools/lint_fixtures/
  tools/lint_invariants.py --list-rules

Suppressions live in tools/lint_allowlist.txt, one per line:
  <rule-id> <path-relative-to-repo> [optional comment...]
A line suppresses every finding of that rule in that file. Unused
allowlist entries are themselves reported — the list cannot rot.

stdlib-only by design (runs in the fast CI path before any toolchain
is installed).
"""

import argparse
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ALLOWLIST_PATH = os.path.join(REPO_ROOT, "tools", "lint_allowlist.txt")
FIXTURE_DIR = os.path.join(REPO_ROOT, "tools", "lint_fixtures")

# Directories linted for the content rules. Tests get the env/random
# rules too (a test seeding from wall-clock is as nondeterministic as a
# library doing it) but not naked-new/cout (gtest idiom differs).
LIB_DIRS = ("src",)
CODE_DIRS = ("src", "bench", "tests", "examples", "tools")
CPP_EXTENSIONS = (".cpp", ".hpp", ".h", ".cc", ".hh")

# Layer ranks for the include-hygiene rule; include paths are spelled
# "layer/header.hpp" from the src/ root everywhere in this repo.
# Layers absent from the map (tools, fixtures) are ignored.
LAYER_RANK = {
    "obs": 0,
    "support": 1,
    "graph": 2,
    "views": 3,
    "uxs": 3,
    "sim": 3,
    "store": 4,
    "cache": 5,
    "core": 6,
    "analysis": 7,
    "sweep": 8,
    "exp": 9,
}

# Headers deliberately exempt from the DAG: self-contained (std-only,
# fully inline) debug machinery that even the bottom layer may use.
# support/check.hpp is the invariant/lock-rank checker; keeping it
# dependency-free is asserted by its own comment block and by the fact
# that rdv_obs links without rdv_support.
LAYER_ZERO_HEADERS = {"support/check.hpp"}

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')
COMMENT_RE = re.compile(r"//.*$")


def strip_noise(line):
    """Removes // comments and string literal CONTENTS (quotes stay, so
    includes still parse) to keep the content rules from firing on
    documentation or log text."""
    line = COMMENT_RE.sub("", line)
    # Collapse "..." contents; naive but sufficient for this codebase
    # (no multi-line raw strings on lint-relevant lines).
    return re.sub(r'"(?:[^"\\]|\\.)*"', '""', line)


class Rule:
    def __init__(self, rule_id, description, applies, check):
        self.rule_id = rule_id
        self.description = description
        self.applies = applies  # (relpath) -> bool
        self.check = check  # (relpath, lineno, raw, stripped) -> str|None


def in_dirs(relpath, dirs):
    return any(relpath == d or relpath.startswith(d + "/") for d in dirs)


def applies_code(relpath):
    return in_dirs(relpath, CODE_DIRS)


def applies_lib(relpath):
    return in_dirs(relpath, LIB_DIRS)


ENV_READ_RE = re.compile(r"\b(?:std\s*::\s*)?(?:secure_)?getenv\s*\(")
ENV_WRITE_RE = re.compile(r"\b(?:::\s*)?(?:set|put|unset)env\s*\(")


def check_env(relpath, lineno, raw, stripped):
    if relpath == "src/support/env.cpp":
        return None
    if ENV_READ_RE.search(stripped):
        return "environment read outside support/env (use env_flag/" \
               "env_string)"
    # Writes are allowed in tests (they arrange the environment the
    # reader is being tested against) but not in library/bench code —
    # exporting knobs goes through support::env_export.
    if not in_dirs(relpath, ("tests",)) and ENV_WRITE_RE.search(stripped):
        return "environment write outside support/env (use " \
               "support::env_export)"
    return None


RANDOM_RE = re.compile(
    r"\b(?:std\s*::\s*)?(?:rand\s*\(\s*\)|srand\s*\(|random_device\b"
    r"|mt19937(?:_64)?\b)"
    r"|\btime\s*\(\s*(?:NULL|nullptr|0)\s*\)"
    r"|\bsystem_clock\s*::\s*now\b[^\n]*seed"
)


def check_random(relpath, lineno, raw, stripped):
    if relpath == "src/support/splitmix.cpp" or \
       relpath == "src/support/splitmix.hpp":
        return None
    if RANDOM_RE.search(stripped):
        return "unseeded/wall-clock randomness (all randomness flows " \
               "from support/splitmix with an explicit seed)"
    return None


NAKED_NEW_RE = re.compile(
    r"(?<![:\w])new\s+[A-Za-z_:][\w:<>,\s]*[({]"
    r"|\b(?:malloc|calloc|realloc|free)\s*\("
)
PLACEMENT_OR_SMART_RE = re.compile(
    r"make_unique|make_shared|unique_ptr|shared_ptr|operator new"
)


def check_naked_new(relpath, lineno, raw, stripped):
    if not applies_lib(relpath):
        return None
    if PLACEMENT_OR_SMART_RE.search(stripped):
        return None
    if NAKED_NEW_RE.search(stripped):
        return "naked new/malloc in library code (use containers or " \
               "smart pointers; intentional process-global leaks need " \
               "an allowlist entry)"
    return None


COUT_RE = re.compile(r"\bstd\s*::\s*cout\b")


def check_cout(relpath, lineno, raw, stripped):
    if not applies_lib(relpath):
        return None
    if COUT_RE.search(stripped):
        return "std::cout in library code (tables render via exp/driver," \
               " diagnostics to stderr, observability is sidecar-only)"
    return None


def file_layer(relpath):
    """The layer of a repo file, or None when unlayered."""
    parts = relpath.split("/")
    if len(parts) >= 2 and parts[0] == "src":
        return LAYER_RANK.get(parts[1])
    return None


def check_layer_dag(relpath, lineno, raw, stripped):
    m = INCLUDE_RE.match(raw)
    if not m:
        return None
    include = m.group(1)
    if include in LAYER_ZERO_HEADERS:
        return None
    my_rank = file_layer(relpath)
    if my_rank is None:
        return None
    top = include.split("/")[0]
    inc_rank = LAYER_RANK.get(top)
    if inc_rank is None:
        return None
    if inc_rank > my_rank:
        return (f"layer DAG violation: {relpath.split('/')[1]} "
                f"(rank {my_rank}) includes {include} (rank {inc_rank})")
    return None


TASK_GROUP_RE = re.compile(r"\bTaskGroup\b")
CHUNK_ASSIGN_RE = re.compile(r"\bchunk_size\s*=(?!=)")


def check_pool_fanout(relpath, lineno, raw, stripped):
    if not applies_lib(relpath) or \
       in_dirs(relpath, ("src/support", "src/sweep")):
        return None
    if TASK_GROUP_RE.search(stripped):
        return "TaskGroup outside support/sweep (fan out through " \
               "sweep::sweep_map)"
    if CHUNK_ASSIGN_RE.search(stripped):
        return "chunk_size set in library code (sweep_map derives the " \
               "grain from the work)"
    return None


RULES = [
    Rule("env-access", "environment access outside support/env",
         applies_code, check_env),
    Rule("unseeded-random", "nondeterministic randomness source",
         applies_code, check_random),
    Rule("naked-new", "naked new/malloc in src/",
         applies_lib, check_naked_new),
    Rule("cout-in-lib", "std::cout in library code",
         applies_lib, check_cout),
    Rule("layer-dag", "include pointing up the layer DAG",
         applies_lib, check_layer_dag),
    Rule("pool-fanout", "pool fan-out outside sweep_map",
         applies_lib, check_pool_fanout),
]


def load_allowlist(path):
    """-> {(rule_id, relpath)}; malformed lines are fatal."""
    entries = {}
    if not os.path.exists(path):
        return entries
    with open(path, encoding="utf-8") as fh:
        for n, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(None, 2)
            if len(parts) < 2:
                sys.exit(f"{path}:{n}: malformed allowlist line: {line!r}")
            rule_id, relpath = parts[0], parts[1]
            if rule_id not in {r.rule_id for r in RULES}:
                sys.exit(f"{path}:{n}: unknown rule id {rule_id!r}")
            entries[(rule_id, relpath)] = n
    return entries


def iter_files(root, dirs):
    for d in dirs:
        base = os.path.join(root, d)
        if not os.path.isdir(base):
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = [x for x in dirnames
                           if x not in ("lint_fixtures", "__pycache__")]
            for name in sorted(filenames):
                if name.endswith(CPP_EXTENSIONS):
                    full = os.path.join(dirpath, name)
                    yield os.path.relpath(full, root).replace(os.sep, "/")


def lint_file(root, relpath, allowlist, used_allowlist, findings):
    full = os.path.join(root, relpath)
    try:
        with open(full, encoding="utf-8", errors="replace") as fh:
            lines = fh.readlines()
    except OSError as err:
        findings.append((relpath, 0, "io", f"unreadable: {err}"))
        return
    in_block_comment = False
    for lineno, raw in enumerate(lines, 1):
        # Block comments: cheap tracker, enough for this codebase's
        # /// + /* ... */ styles.
        stripped = strip_noise(raw)
        if in_block_comment:
            if "*/" in stripped:
                stripped = stripped.split("*/", 1)[1]
                in_block_comment = False
            else:
                continue
        if "/*" in stripped:
            head, _, tail = stripped.partition("/*")
            if "*/" in tail:
                stripped = head + tail.split("*/", 1)[1]
            else:
                stripped = head
                in_block_comment = True
        for rule in RULES:
            if not rule.applies(relpath):
                continue
            message = rule.check(relpath, lineno, raw, stripped)
            if message is None:
                continue
            key = (rule.rule_id, relpath)
            if key in allowlist:
                used_allowlist.add(key)
            else:
                findings.append((relpath, lineno, rule.rule_id, message))


def run_lint(root):
    allowlist = load_allowlist(ALLOWLIST_PATH)
    used = set()
    findings = []
    for relpath in iter_files(root, CODE_DIRS):
        lint_file(root, relpath, allowlist, used, findings)
    for key, lineno in sorted(allowlist.items(), key=lambda kv: kv[1]):
        if key not in used:
            findings.append((os.path.relpath(ALLOWLIST_PATH, root), lineno,
                            "stale-allowlist",
                            f"allowlist entry never matched: {key[0]} "
                            f"{key[1]}"))
    for relpath, lineno, rule_id, message in findings:
        print(f"{relpath}:{lineno}: [{rule_id}] {message}")
    if findings:
        print(f"lint_invariants: {len(findings)} finding(s)",
              file=sys.stderr)
        return 1
    print("lint_invariants: clean "
          f"({len(list(iter_files(root, CODE_DIRS)))} files)")
    return 0


def run_self_test():
    """Every rule must fire on its fixture, and the fixture findings
    must match the expectations embedded in the fixture files
    (`// lint-expect: <rule-id>` on the violating line)."""
    if not os.path.isdir(FIXTURE_DIR):
        sys.exit(f"fixture dir missing: {FIXTURE_DIR}")
    failures = []
    fired = set()
    for name in sorted(os.listdir(FIXTURE_DIR)):
        if not name.endswith(CPP_EXTENSIONS):
            continue
        full = os.path.join(FIXTURE_DIR, name)
        with open(full, encoding="utf-8") as fh:
            lines = fh.readlines()
        # Fixtures declare the repo-relative path they impersonate on
        # line 1: `// lint-path: src/cache/fixture.cpp`
        m = re.match(r"//\s*lint-path:\s*(\S+)", lines[0])
        if not m:
            failures.append(f"{name}: missing '// lint-path:' header")
            continue
        relpath = m.group(1)
        expectations = {}  # lineno -> rule_id
        for lineno, line in enumerate(lines, 1):
            em = re.search(r"lint-expect:\s*([\w-]+)", line)
            if em:
                expectations[lineno] = em.group(1)
        findings = []
        # Fixture contents are linted as if they lived at lint-path;
        # the allowlist deliberately does NOT apply (self-test checks
        # the rules, not the suppressions).
        with open(full, encoding="utf-8") as fh:
            file_lines = fh.readlines()
        in_block = False
        for lineno, raw in enumerate(file_lines, 1):
            stripped = strip_noise(raw)
            if in_block:
                if "*/" in stripped:
                    stripped = stripped.split("*/", 1)[1]
                    in_block = False
                else:
                    continue
            if "/*" in stripped:
                head, _, tail = stripped.partition("/*")
                if "*/" in tail:
                    stripped = head + tail.split("*/", 1)[1]
                else:
                    stripped = head
                    in_block = True
            for rule in RULES:
                if not rule.applies(relpath):
                    continue
                message = rule.check(relpath, lineno, raw, stripped)
                if message is not None:
                    findings.append((lineno, rule.rule_id))
                    fired.add(rule.rule_id)
        got = dict(findings)
        for lineno, rule_id in expectations.items():
            if got.get(lineno) != rule_id:
                failures.append(
                    f"{name}:{lineno}: expected [{rule_id}], got "
                    f"{got.get(lineno)!r}")
        for lineno, rule_id in findings:
            if lineno not in expectations:
                failures.append(
                    f"{name}:{lineno}: unexpected finding [{rule_id}]")
    missing = {r.rule_id for r in RULES} - fired
    if missing:
        failures.append(f"rules with no firing fixture: {sorted(missing)}")
    for f in failures:
        print(f, file=sys.stderr)
    if failures:
        print(f"lint_invariants --self-test: {len(failures)} failure(s)",
              file=sys.stderr)
        return 1
    print(f"lint_invariants --self-test: all {len(RULES)} rules verified")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--self-test", action="store_true",
                        help="verify every rule against its fixture")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--root", default=REPO_ROOT,
                        help="repo root to lint (default: this repo)")
    args = parser.parse_args()
    if args.list_rules:
        for rule in RULES:
            print(f"{rule.rule_id}: {rule.description}")
        return 0
    if args.self_test:
        return run_self_test()
    return run_lint(args.root)


if __name__ == "__main__":
    sys.exit(main())
