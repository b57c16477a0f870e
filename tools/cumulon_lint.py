#!/usr/bin/env python3
"""Repo-specific contract linter for cumulon-cpp.

Checks (all run by default; exit code 0 = clean):

1. Metric-name contract (docs/observability.md <-> src/): every counter /
   gauge / histogram name used in src/ must have a row in the doc's contract
   tables, and every doc row must correspond to a name still used in src/.
   Dynamic names built with StrCat (e.g. "sched.tenant." + tenant +
   ".submitted") are checked at prefix level against the doc's <wildcard>
   rows.

2. Trace-category contract: every TraceSpan category assigned in src/ must
   appear in the doc's trace-category table, and vice versa.

3. Banned APIs:
   - raw std::mutex / std::condition_variable / std::lock_guard /
     std::unique_lock / std::scoped_lock outside common/thread_annotations.h
     and common/mutex.{h,cc} (all locking goes through cumulon::Mutex so the
     Clang thread-safety lane and the lock-order validator see it),
   - std::this_thread::sleep_for in src/ outside dfs/sim_dfs.cc (the
     simulated-IO service clock is the only component allowed to sleep),
   - raw buffer allocation (`new double[...]`, malloc/calloc/realloc/
     aligned_alloc/posix_memalign) outside common/aligned_buffer.{h,cc}:
     tile payloads must come from the cache-line-aligned allocator so
     SIMD kernels can assume 64-byte alignment and the cache's
     MemoryBytes accounting stays truthful,
   - `(void)` casts of call expressions (`(void)DoThing();`): Status and
     Result are [[nodiscard]] and the sanctioned way to drop one is
     `.IgnoreError()`, which is greppable and states intent. Unused-
     parameter silencers (`(void)name;`) stay legal.

4. Verifier-edge contract: every guarded pipeline edge must actually call
   its Verify* entry point (src/verify), and the executor its tile-
   coverage check. The table below names the edge -> entry-point pairs;
   losing one silently un-guards that edge, so the linter greps for the
   call. No file under src/verify/ may call Build(): tile coverage is
   checked on the build the executor runs, so a dry build there would
   only build every job twice.

5. Experiment contract (DESIGN.md -> EXPERIMENTS.md, DESIGN.md <->
   bench/CMakeLists.txt): every ID in DESIGN.md's "## Experiment index"
   table must have a "## <ID> —" section in EXPERIMENTS.md, every bench_*
   target that bench/CMakeLists.txt builds must be named in an index row,
   and every bench an index row names must be built. Deleting an
   experiment's results, its bench or its row alone then fails tier-1
   instead of leaving the index and the benches out of step.

6. Layering: no file under src/common, src/matrix, src/dfs, src/cluster
   or src/exec may include a sched/ header. The workload manager sits
   above the executor and the engines; they read its slot share through a
   borrowed atomic (JobSpec::slot_share) and need nothing from src/sched.

Usage:
  tools/cumulon_lint.py [--root REPO_ROOT]
  tools/cumulon_lint.py --self-test
"""

import argparse
import os
import re
import sys
import tempfile

METRIC_NAME_RE = re.compile(
    r'^(exec|engine|dfs|cache|prefetch|sched|cluster|svc|mem|obs|verify)'
    r'\.[a-z0-9_.]+$')
METRIC_PREFIX_RE = re.compile(
    r'^(exec|engine|dfs|cache|prefetch|sched|cluster|svc|mem|obs|verify)'
    r'\.([a-z0-9_.]+\.)?$')
STRING_LITERAL_RE = re.compile(r'"((?:[^"\\]|\\.)*)"')
KIND_CALL_RE = re.compile(r'\b(counter|gauge|histogram)\(\s*"([^"]+)"')
CATEGORY_RE = re.compile(r'\.category\s*=\s*"([^"]+)"')

# `(void)` cast applied to a call expression. The char class after the
# cast must reach a `(` for the line to count — a bare `(void)name;`
# parameter silencer never does.
VOID_DISCARD_RE = re.compile(r'\(void\)\s*[\w:.>\-\[\]]+\s*\(')

# Guarded pipeline edges: (file under src/, Verify* entry point that must
# be called there). Dropping a call silently un-guards the edge, so the
# linter greps for it. Keep in sync with DESIGN.md "Plan verification".
VERIFY_EDGE_CONTRACT = (
    ('lang/logical_optimizer.cc', 'VerifyProgramStatus'),
    ('lang/lowering.cc', 'VerifyPlanStatus'),
    ('sched/workload_manager.cc', 'VerifyPlanStatus'),
    ('svc/service.cc', 'VerifyPlanStatus'),
    ('opt/search.cc', 'VerifyMatMulSplit'),
    ('opt/job_tuner.cc', 'VerifyMatMulSplit'),
    ('exec/executor.cc', 'CheckTileCoverage'),
)

# A job build (`job->Build(ctx)`, `Build (`) anywhere under src/verify/.
VERIFY_BUILD_CALL_RE = re.compile(r'\bBuild\s*\(')

# Layers below the workload manager, and an include of a sched/ header.
BELOW_SCHED_DIRS = ('common/', 'matrix/', 'dfs/', 'cluster/', 'exec/')
SCHED_INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"sched/')

# DESIGN.md's experiment index rows ("| E2 | ... | `bench_e2_split_sweep` |"),
# EXPERIMENTS.md's section headings ("## E2 — ...") and the bench targets
# bench/CMakeLists.txt builds ("cumulon_add_bench(bench_e2_split_sweep)" or
# "add_executable(bench_e10_micro_tile ...)").
EXPERIMENT_INDEX_HEADING = '## Experiment index'
EXPERIMENT_ROW_RE = re.compile(r'^\|\s*([EA]\d+[a-z]?)\s*\|')
EXPERIMENT_SECTION_RE = re.compile(r'^## ([EA]\d+[a-z]?) —')
BENCH_NAME_RE = re.compile(r'`(bench_\w+)`')
BENCH_TARGET_RE = re.compile(
    r'^\s*(?:cumulon_add_bench|add_executable)\(\s*(bench_\w+)')

BANNED_SYNC_RE = re.compile(
    r'std::(mutex|condition_variable|condition_variable_any|lock_guard|'
    r'unique_lock|scoped_lock|shared_mutex|recursive_mutex)\b')
SLEEP_RE = re.compile(r'std::this_thread::sleep_for')
RAW_ALLOC_RE = re.compile(
    r'(new\s+double\s*\[|\b(?:std::)?'
    r'(malloc|calloc|realloc|aligned_alloc|posix_memalign)\s*\()')

SYNC_ALLOWLIST = {
    'common/thread_annotations.h',
    'common/mutex.h',
    'common/mutex.cc',  # the lock-order validator's own graph lock
}
SLEEP_ALLOWLIST = {
    'dfs/sim_dfs.cc',  # injected read service time (the sim clock)
}
ALLOC_ALLOWLIST = {
    'common/aligned_buffer.h',  # the aligned allocator itself
    'common/aligned_buffer.cc',
}


def strip_comments(text):
    """Removes // and /* */ comments (string-literal aware enough for this
    codebase: no metric name or banned API ever sits behind a quoted //)."""
    text = re.sub(r'/\*.*?\*/', ' ', text, flags=re.S)
    out = []
    for line in text.splitlines():
        # Cut at the first // that is not inside a string literal.
        in_str = False
        i = 0
        while i < len(line):
            c = line[i]
            if c == '\\' and in_str:
                i += 2
                continue
            if c == '"':
                in_str = not in_str
            elif not in_str and c == '/' and line[i:i + 2] == '//':
                line = line[:i]
                break
            i += 1
        out.append(line)
    return '\n'.join(out)


def iter_source_files(src_root):
    for dirpath, _, filenames in os.walk(src_root):
        for name in sorted(filenames):
            if name.endswith(('.h', '.cc')):
                yield os.path.join(dirpath, name)


def collect_code_usage(src_root):
    """Returns (names, prefixes, kinds, categories, violations).

    names: dict metric-name -> first "file:line" using it.
    prefixes: dict dynamic-name prefix (trailing '.') -> first "file:line"
      (from StrCat'd names such as "sched.tenant.").
    kinds: dict metric-name -> set of kinds seen at call sites where the
      kind is syntactically evident (counter("x")).
    categories: dict span category -> first "file:line".
    violations: list of banned-API messages.
    """
    names, prefixes, kinds, categories = {}, {}, {}, {}
    violations = []
    for path in iter_source_files(src_root):
        rel = os.path.relpath(path, src_root).replace(os.sep, '/')
        with open(path, encoding='utf-8') as f:
            raw = f.read()
        text = strip_comments(raw)
        for lineno, line in enumerate(text.splitlines(), start=1):
            where = f'{rel}:{lineno}'
            if rel not in SYNC_ALLOWLIST:
                m = BANNED_SYNC_RE.search(line)
                if m:
                    violations.append(
                        f'{where}: banned raw std::{m.group(1)} (use '
                        f'cumulon::Mutex/MutexLock/CondVar from '
                        f'common/mutex.h)')
            if rel not in SLEEP_ALLOWLIST and SLEEP_RE.search(line):
                violations.append(
                    f'{where}: banned std::this_thread::sleep_for outside '
                    f'the sim clock (dfs/sim_dfs.cc)')
            if rel not in ALLOC_ALLOWLIST and RAW_ALLOC_RE.search(line):
                violations.append(
                    f'{where}: banned raw buffer allocation (use '
                    f'AlignedVector/AlignedAllocator from '
                    f'common/aligned_buffer.h so tile payloads stay '
                    f'64-byte aligned)')
            if rel.startswith('verify/') and VERIFY_BUILD_CALL_RE.search(
                    line):
                violations.append(
                    f'{where}: Build() call under src/verify (tile coverage '
                    f'is checked on the build Executor::Run runs; a dry '
                    f'build here builds every job twice)')
            if rel.startswith(BELOW_SCHED_DIRS) and SCHED_INCLUDE_RE.search(
                    line):
                violations.append(
                    f'{where}: includes a sched/ header (src/{rel.split("/")[0]} '
                    f'sits below the workload manager and must not depend '
                    f'on src/sched)')
            if VOID_DISCARD_RE.search(line):
                violations.append(
                    f'{where}: banned (void) cast of a call result (drop a '
                    f'Status/Result with .IgnoreError() so the discard is '
                    f'greppable and intentional)')
            for lit in STRING_LITERAL_RE.findall(line):
                if lit.endswith('.'):
                    if METRIC_PREFIX_RE.match(lit):
                        prefixes.setdefault(lit, where)
                elif METRIC_NAME_RE.match(lit):
                    names.setdefault(lit, where)
            for kind, name in KIND_CALL_RE.findall(line):
                kinds.setdefault(name, set()).add(kind)
            for cat in CATEGORY_RE.findall(line):
                categories.setdefault(cat, where)
    return names, prefixes, kinds, categories, violations


DOC_NAME_CELL_RE = re.compile(r'`([^`]+)`')


def parse_doc_contract(doc_path):
    """Parses docs/observability.md's contract tables.

    Returns (doc_names, doc_rows, categories):
      doc_names: dict full metric name -> kind ('counter'|'gauge'|'histogram')
        for concrete rows; wildcard rows keep their <...>/* markers.
      doc_rows: list of (name, kind, lineno) for the dead-row check.
      categories: dict trace category -> lineno.
    """
    doc_names, doc_rows, categories = {}, [], {}
    section = None
    in_category_table = False
    with open(doc_path, encoding='utf-8') as f:
        for lineno, line in enumerate(f, start=1):
            stripped = line.strip()
            if stripped.startswith('#'):
                head = stripped.lstrip('#').strip().lower()
                if 'counter' in head:
                    section = 'counter'
                elif 'gauge' in head:
                    section = 'gauge'
                elif 'histogram' in head:
                    section = 'histogram'
                elif 'reason' in head:
                    # Typed error-reason slugs (verify.*) — documented in
                    # the same dotted namespace but never metric calls.
                    section = 'reason'
                else:
                    section = None
                in_category_table = 'trace categories' in head
                continue
            if not stripped.startswith('|'):
                continue
            cells = [c.strip() for c in stripped.strip('|').split('|')]
            if not cells or set(cells[0]) <= {'-', ' ', ':'}:
                continue
            if in_category_table:
                for name in DOC_NAME_CELL_RE.findall(cells[0]):
                    if name.lower() not in ('name', 'category'):
                        categories[name] = lineno
                continue
            if section is None:
                continue
            # A name cell may hold several names: "`a` / `b`" and leading-dot
            # continuations ("`sched.tenant.<t>.submitted` / `.finished`").
            last_full = None
            for name in DOC_NAME_CELL_RE.findall(cells[0]):
                if name in ('Name',):
                    continue
                if name.startswith('.') and last_full is not None:
                    name = last_full.rsplit('.', 1)[0] + name if (
                        '.' in last_full) else last_full + name
                    # Continuation replaces the last segment of the
                    # previous name: sched.tenant.<t>.submitted + .finished
                    # -> sched.tenant.<t>.finished.
                else:
                    last_full = name
                doc_names[name] = section
                doc_rows.append((name, section, lineno))
    return doc_names, doc_rows, categories


def experiment_index(design_path):
    """Returns [(experiment ID, lineno, bench names in the row)] from
    DESIGN.md's index table."""
    rows = []
    in_index = False
    with open(design_path, encoding='utf-8') as f:
        for lineno, line in enumerate(f, start=1):
            if line.startswith('## '):
                in_index = line.strip() == EXPERIMENT_INDEX_HEADING
                continue
            m = EXPERIMENT_ROW_RE.match(line) if in_index else None
            if m:
                rows.append((m.group(1), lineno, BENCH_NAME_RE.findall(line)))
    return rows


def bench_targets(cmake_path):
    """Returns {bench target: lineno} that bench/CMakeLists.txt builds."""
    if not os.path.exists(cmake_path):
        return {}
    with open(cmake_path, encoding='utf-8') as f:
        return {m.group(1): lineno for lineno, m in
                enumerate(map(BENCH_TARGET_RE.match, f), start=1) if m}


def experiment_sections(experiments_path):
    """Returns the set of experiment IDs EXPERIMENTS.md has sections for."""
    if not os.path.exists(experiments_path):
        return set()
    with open(experiments_path, encoding='utf-8') as f:
        return {m.group(1) for m in map(EXPERIMENT_SECTION_RE.match, f) if m}


def doc_pattern_to_regex(name):
    """Doc-row name -> regex. `<...>` and `*` are one-or-more wildcards."""
    out = []
    for part in re.split(r'(<[^>]*>|\*)', name):
        if not part:
            continue
        if part == '*' or part.startswith('<'):
            out.append('.+')
        else:
            out.append(re.escape(part))
    return re.compile('^' + ''.join(out) + '$')


def lint(root, edge_contract=VERIFY_EDGE_CONTRACT):
    src_root = os.path.join(root, 'src')
    doc_path = os.path.join(root, 'docs', 'observability.md')
    errors = []

    names, prefixes, kinds, categories, violations = (
        collect_code_usage(src_root))
    errors.extend(violations)

    # Verifier-edge contract: each guarded edge must call its entry point.
    for rel, symbol in edge_contract:
        edge_path = os.path.join(src_root, rel)
        if not os.path.exists(edge_path):
            errors.append(
                f'src/{rel}: file missing but the verifier-edge contract '
                f'requires it to call {symbol}()')
            continue
        with open(edge_path, encoding='utf-8') as f:
            edge_text = strip_comments(f.read())
        if not re.search(r'\b' + re.escape(symbol) + r'\s*\(', edge_text):
            errors.append(
                f'src/{rel}: guarded pipeline edge no longer calls '
                f'{symbol}() (verifier-edge contract; see DESIGN.md '
                f'"Plan verification")')

    # Experiment contract: each indexed experiment has its results section
    # and a built bench, and each built bench has an index row.
    design_path = os.path.join(root, 'DESIGN.md')
    if os.path.exists(design_path):
        sections = experiment_sections(os.path.join(root, 'EXPERIMENTS.md'))
        built = bench_targets(os.path.join(root, 'bench', 'CMakeLists.txt'))
        indexed = set()
        for exp_id, lineno, benches in experiment_index(design_path):
            if exp_id not in sections:
                errors.append(
                    f'DESIGN.md:{lineno}: experiment {exp_id} is in the '
                    f'experiment index but EXPERIMENTS.md has no '
                    f'"## {exp_id} —" section')
            for bench in benches:
                indexed.add(bench)
                if bench not in built:
                    errors.append(
                        f'DESIGN.md:{lineno}: experiment {exp_id} names '
                        f'{bench}, which bench/CMakeLists.txt does not build')
        for bench, lineno in sorted(built.items()):
            if bench not in indexed:
                errors.append(
                    f'bench/CMakeLists.txt:{lineno}: {bench} is built but no '
                    f'row of DESIGN.md\'s experiment index names it')

    if not os.path.exists(doc_path):
        errors.append(f'{doc_path}: missing metric contract doc')
        report(errors)
        return 1

    doc_names, doc_rows, doc_categories = parse_doc_contract(doc_path)
    doc_regexes = [(n, k, doc_pattern_to_regex(n)) for n, k in
                   doc_names.items()]

    # Direction 1: every code name/prefix must be documented.
    for name, where in sorted(names.items()):
        hits = [(n, k) for n, k, rx in doc_regexes if rx.match(name)]
        if not hits:
            errors.append(
                f'{where}: metric "{name}" has no row in '
                f'docs/observability.md')
            continue
        used_kinds = kinds.get(name, set())
        if used_kinds and not used_kinds & {k for _, k in hits}:
            errors.append(
                f'{where}: metric "{name}" used as '
                f'{"/".join(sorted(used_kinds))} but documented as '
                f'{"/".join(sorted(k for _, k in hits))}')
    for prefix, where in sorted(prefixes.items()):
        if not any(n.startswith(prefix) or rx.match(prefix + 'x')
                   for n, _, rx in doc_regexes):
            errors.append(
                f'{where}: dynamic metric prefix "{prefix}*" has no '
                f'matching row in docs/observability.md')

    # Direction 2: every doc row must still be exercised by src/.
    for name, kind, lineno in doc_rows:
        rx = doc_pattern_to_regex(name)
        concrete = any(rx.match(code_name) for code_name in names)
        dynamic = any(name.startswith(p) or rx.match(p + 'x')
                      for p in prefixes)
        if not concrete and not dynamic:
            errors.append(
                f'docs/observability.md:{lineno}: dead contract row '
                f'`{name}` ({kind}): no src/ code emits it')

    # Trace categories, both directions.
    for cat, where in sorted(categories.items()):
        if cat not in doc_categories:
            errors.append(
                f'{where}: trace category "{cat}" has no row in the '
                f'docs/observability.md trace-category table')
    for cat, lineno in sorted(doc_categories.items()):
        if cat not in categories:
            errors.append(
                f'docs/observability.md:{lineno}: dead trace-category row '
                f'`{cat}`: no src/ code emits it')

    report(errors)
    return 1 if errors else 0


def report(errors):
    for e in errors:
        print(f'cumulon_lint: {e}')
    if errors:
        print(f'cumulon_lint: {len(errors)} problem(s)')
    else:
        print('cumulon_lint: clean')


# ---------------------------------------------------------------------------
# Self-test: build throwaway repo trees and assert the linter's verdicts.

SELF_TEST_DOC = """# obs
### Counters
| Name | Meaning |
|---|---|
| `engine.jobs` | jobs |
| `sched.tenant.<tenant>.submitted` | per tenant |
### Gauges
| Name | Meaning |
|---|---|
| `sched.queued` | depth |
### Histograms
| Name | Meaning |
|---|---|
| `engine.task.seconds` | per task |
### Trace categories
| Name | Meaning |
|---|---|
| `task` | one span per task |
"""

SELF_TEST_SRC = """#include "common/mutex.h"
void F(MetricsRegistry* m, Tracer* t) {
  m->counter("engine.jobs")->Increment();
  m->counter(StrCat("sched.tenant.", who, ".submitted"))->Increment();
  m->gauge("sched.queued")->Set(1);
  m->histogram("engine.task.seconds")->Observe(0.5);
  TraceSpan s;
  s.category = "task";
}
"""


SELF_TEST_DESIGN = """# Design
## Experiment index
| ID | Claim | Bench target |
|---|---|---|
| E1 | multiply | `bench_e1` |
| A1 | fusion | `bench_a1` |
## Design choices
| E9 | not in the index | `bench_e9` |
"""

SELF_TEST_BENCH_CMAKE = """function(cumulon_add_bench name)
  add_executable(${name} ${name}.cc)
endfunction()
cumulon_add_bench(bench_e1)
add_executable(bench_a1 bench_a1.cc)
"""

SELF_TEST_EXPERIMENTS = """# Experiments
## E1 — multiply (`bench_e1`)
## A1 — fusion (`bench_a1`)
"""


def write_tree(tmp, doc, src, root_files=None):
    os.makedirs(os.path.join(tmp, 'src', 'x'))
    os.makedirs(os.path.join(tmp, 'docs'))
    with open(os.path.join(tmp, 'docs', 'observability.md'), 'w') as f:
        f.write(doc)
    with open(os.path.join(tmp, 'src', 'x', 'x.cc'), 'w') as f:
        f.write(src)
    for name, text in (root_files or {}).items():
        os.makedirs(os.path.dirname(os.path.join(tmp, name)), exist_ok=True)
        with open(os.path.join(tmp, name), 'w', encoding='utf-8') as f:
            f.write(text)


def self_test():
    failures = []

    def expect(label, doc, src, want_clean, want_substring=None,
               edge_contract=(), root_files=None):
        with tempfile.TemporaryDirectory() as tmp:
            write_tree(tmp, doc, src, root_files)
            import io
            import contextlib
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = lint(tmp, edge_contract=edge_contract)
            out = buf.getvalue()
            if want_clean and rc != 0:
                failures.append(f'{label}: expected clean, got:\n{out}')
            if not want_clean and rc == 0:
                failures.append(f'{label}: expected failure, got clean')
            if want_substring and want_substring not in out:
                failures.append(
                    f'{label}: expected "{want_substring}" in:\n{out}')

    expect('clean tree', SELF_TEST_DOC, SELF_TEST_SRC, want_clean=True)
    expect('undocumented metric', SELF_TEST_DOC,
           SELF_TEST_SRC.replace(
               '"engine.jobs"', '"engine.jobs"); '
               'm->counter("engine.retries"', 1),
           want_clean=False, want_substring='engine.retries')
    expect('dead doc row',
           SELF_TEST_DOC.replace(
               '| `engine.jobs` | jobs |',
               '| `engine.jobs` | jobs |\n| `engine.ghost` | gone |'),
           SELF_TEST_SRC, want_clean=False, want_substring='engine.ghost')
    expect('undocumented trace category', SELF_TEST_DOC,
           SELF_TEST_SRC.replace('s.category = "task"',
                                 's.category = "mystery"'),
           want_clean=False, want_substring='mystery')
    expect('dead trace-category row', SELF_TEST_DOC,
           SELF_TEST_SRC.replace('s.category = "task";', ''),
           want_clean=False, want_substring='dead trace-category row')
    expect('raw std::mutex', SELF_TEST_DOC,
           SELF_TEST_SRC + '\nstd::mutex bad_mu;\n',
           want_clean=False, want_substring='banned raw std::mutex')
    expect('sleep_for outside sim clock', SELF_TEST_DOC,
           SELF_TEST_SRC + '\nvoid Z() { std::this_thread::sleep_for(d); }\n',
           want_clean=False, want_substring='sleep_for')
    expect('raw new double[] buffer', SELF_TEST_DOC,
           SELF_TEST_SRC + '\ndouble* Buf(int n) { return new double[n]; }\n',
           want_clean=False, want_substring='banned raw buffer allocation')
    expect('raw malloc buffer', SELF_TEST_DOC,
           SELF_TEST_SRC + '\nvoid* Buf2(int n) { return malloc(n); }\n',
           want_clean=False, want_substring='banned raw buffer allocation')
    expect('kind mismatch', SELF_TEST_DOC,
           SELF_TEST_SRC.replace('m->gauge("sched.queued")',
                                 'm->counter("sched.queued")'),
           want_clean=False, want_substring='documented as')
    expect('undocumented dynamic prefix', SELF_TEST_DOC,
           SELF_TEST_SRC.replace('"sched.tenant."', '"sched.mystery."'),
           want_clean=False, want_substring='sched.mystery.')

    # --- (void)-discard ban -------------------------------------------------
    expect('(void) discard of a call', SELF_TEST_DOC,
           SELF_TEST_SRC + '\nvoid V() { (void)DoThing(); }\n',
           want_clean=False, want_substring='banned (void) cast')
    expect('(void) discard of a member call', SELF_TEST_DOC,
           SELF_TEST_SRC + '\nvoid V2(Store* s) { (void)s->Delete("x"); }\n',
           want_clean=False, want_substring='banned (void) cast')
    expect('(void) parameter silencer stays legal', SELF_TEST_DOC,
           SELF_TEST_SRC + '\nvoid P(int unused) { (void)unused; }\n',
           want_clean=True)

    # --- verify.* metric namespace ------------------------------------------
    expect('undocumented verify metric', SELF_TEST_DOC,
           SELF_TEST_SRC.replace(
               '"engine.jobs"',
               '"engine.jobs"); m->counter("verify.runs"', 1),
           want_clean=False, want_substring='verify.runs')
    expect('documented verify metric', SELF_TEST_DOC.replace(
               '| `engine.jobs` | jobs |',
               '| `engine.jobs` | jobs |\n| `verify.runs` | runs |'),
           SELF_TEST_SRC.replace(
               '"engine.jobs"',
               '"engine.jobs"); m->counter("verify.runs"', 1),
           want_clean=True)

    # --- typed error-reason rows --------------------------------------------
    reason_doc = SELF_TEST_DOC + (
        '### Verifier error reasons\n'
        '| Name | Meaning |\n|---|---|\n'
        '| `verify.plan.dependency` | cycle |\n')
    reason_src = SELF_TEST_SRC.replace(
        's.category = "task";',
        's.category = "task";\n  const char* r = "verify.plan.dependency";')
    expect('documented reason slug', reason_doc, reason_src, want_clean=True)
    expect('undocumented reason slug', SELF_TEST_DOC, reason_src,
           want_clean=False, want_substring='verify.plan.dependency')
    expect('dead reason row', reason_doc, SELF_TEST_SRC,
           want_clean=False, want_substring='verify.plan.dependency')
    expect('reason slug used as a counter', reason_doc,
           reason_src.replace('m->counter("engine.jobs")',
                              'm->counter("verify.plan.dependency"); '
                              'm->counter("engine.jobs")'),
           want_clean=False, want_substring='documented as')

    # --- verifier-edge contract ---------------------------------------------
    edge = (('x/x.cc', 'VerifyPlanStatus'),)
    expect('verifier edge calls its entry point', SELF_TEST_DOC,
           SELF_TEST_SRC + '\nvoid E() { s = VerifyPlanStatus(p, o); }\n',
           want_clean=True, edge_contract=edge)
    expect('verifier edge dropped its call', SELF_TEST_DOC, SELF_TEST_SRC,
           want_clean=False, want_substring='VerifyPlanStatus',
           edge_contract=edge)
    expect('verifier edge call inside a comment does not count',
           SELF_TEST_DOC,
           SELF_TEST_SRC + '\n// VerifyPlanStatus(p, o) happens elsewhere\n',
           want_clean=False, want_substring='VerifyPlanStatus',
           edge_contract=edge)
    expect('verifier edge file missing', SELF_TEST_DOC, SELF_TEST_SRC,
           want_clean=False, want_substring='file missing',
           edge_contract=(('gone/gone.cc', 'VerifyPlanStatus'),))
    executor_edge = tuple(e for e in VERIFY_EDGE_CONTRACT
                          if e[0] == 'exec/executor.cc')
    expect('executor edge runs the coverage check', SELF_TEST_DOC,
           SELF_TEST_SRC, want_clean=True, edge_contract=executor_edge,
           root_files={'src/exec/executor.cc':
                       'Status S() { return CheckTileCoverage(job, b); }\n'})
    expect('executor edge dropped the coverage check', SELF_TEST_DOC,
           SELF_TEST_SRC, want_clean=False,
           want_substring='src/exec/executor.cc: guarded pipeline edge no '
                          'longer calls CheckTileCoverage()',
           edge_contract=executor_edge,
           root_files={'src/exec/executor.cc': 'Status S() { return OK; }\n'})

    # --- no job build under src/verify --------------------------------------
    expect('Build() call under src/verify', SELF_TEST_DOC, SELF_TEST_SRC,
           want_clean=False,
           want_substring='verify/v.cc:1: Build() call under src/verify',
           root_files={'src/verify/v.cc': 'auto b = job->Build(ctx);\n'})
    expect('Build() named only in a src/verify comment', SELF_TEST_DOC,
           SELF_TEST_SRC, want_clean=True,
           root_files={'src/verify/v.cc':
                       '// the executor calls job->Build(ctx)\n'
                       'BuildContext Make();\n'})
    expect('Build() call outside src/verify stays legal', SELF_TEST_DOC,
           SELF_TEST_SRC + '\nauto b = job->Build(ctx);\n', want_clean=True)

    # --- layering: nothing below the workload manager includes sched/ -----
    expect('engine includes a sched/ header', SELF_TEST_DOC, SELF_TEST_SRC,
           want_clean=False,
           want_substring='cluster/e.cc:1: includes a sched/ header',
           root_files={'src/cluster/e.cc': '#include "sched/slot_pool.h"\n'})
    expect('executor includes a sched/ header', SELF_TEST_DOC,
           SELF_TEST_SRC, want_clean=False,
           want_substring='exec/x.h:2: includes a sched/ header',
           root_files={'src/exec/x.h':
                       '#include "cluster/engine.h"\n'
                       '#  include "sched/workload_manager.h"\n'})
    expect('sched/ named only in a comment below sched', SELF_TEST_DOC,
           SELF_TEST_SRC, want_clean=True,
           root_files={'src/exec/x.h':
                       '// see #include "sched/workload_manager.h"\n'})
    expect('layers above sched may include it', SELF_TEST_DOC,
           SELF_TEST_SRC, want_clean=True,
           root_files={'src/svc/s.cc': '#include "sched/elastic.h"\n'})

    # --- experiment contract ------------------------------------------------
    experiment_files = {'DESIGN.md': SELF_TEST_DESIGN,
                        'EXPERIMENTS.md': SELF_TEST_EXPERIMENTS,
                        'bench/CMakeLists.txt': SELF_TEST_BENCH_CMAKE}
    expect('index, sections and benches agree', SELF_TEST_DOC,
           SELF_TEST_SRC, want_clean=True, root_files=experiment_files)
    expect('indexed experiment lost its section', SELF_TEST_DOC,
           SELF_TEST_SRC, want_clean=False,
           want_substring='experiment A1 is in the experiment index',
           root_files={**experiment_files,
                       'EXPERIMENTS.md': SELF_TEST_EXPERIMENTS.replace(
                           '## A1 — fusion', '## A1 fusion')})
    expect('EXPERIMENTS.md missing', SELF_TEST_DOC, SELF_TEST_SRC,
           want_clean=False, want_substring='experiment E1 is in',
           root_files={'DESIGN.md': SELF_TEST_DESIGN,
                       'bench/CMakeLists.txt': SELF_TEST_BENCH_CMAKE})
    expect('built bench has no index row', SELF_TEST_DOC, SELF_TEST_SRC,
           want_clean=False,
           want_substring='bench/CMakeLists.txt:6: bench_e2 is built',
           root_files={**experiment_files,
                       'bench/CMakeLists.txt': SELF_TEST_BENCH_CMAKE +
                       'cumulon_add_bench(bench_e2)\n'})
    expect('indexed bench is not built', SELF_TEST_DOC, SELF_TEST_SRC,
           want_clean=False,
           want_substring='experiment A1 names bench_a1, which',
           root_files={**experiment_files,
                       'bench/CMakeLists.txt': SELF_TEST_BENCH_CMAKE.replace(
                           'add_executable(bench_a1 bench_a1.cc)\n', '')})
    expect('bench named only outside the index is not indexed',
           SELF_TEST_DOC, SELF_TEST_SRC, want_clean=False,
           want_substring='bench_e9 is built',
           root_files={**experiment_files,
                       'bench/CMakeLists.txt': SELF_TEST_BENCH_CMAKE +
                       'cumulon_add_bench(bench_e9)\n'})

    if failures:
        for f in failures:
            print(f'cumulon_lint self-test FAIL: {f}')
        return 1
    print('cumulon_lint self-test: all cases pass')
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument('--root', default=None,
                    help='repo root (default: parent of this script)')
    ap.add_argument('--self-test', action='store_true',
                    help='run the linter against synthetic fixture trees')
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    return lint(root)


if __name__ == '__main__':
    sys.exit(main())
