#!/usr/bin/env python3
"""Regression tests for scripts/lint_sitm.py.

pytest-style test_* functions with plain asserts, plus a __main__ runner
so CI needs only `python3 scripts/test_lint_sitm.py` (no pytest
dependency). Each test builds a miniature source tree in a temp dir and
runs lint_sitm.run_lint() on it; the last test lints the live repo and
must come back clean (the lint is a CI gate, so a dirty tree here means
either a real defect or a rule that needs tuning *before* it lands).

One fixture per rule trips it; sibling fixtures prove the negative space
(suppression markers, ambiguous names, exempt files) stays quiet.
"""

import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import lint_sitm  # noqa: E402

# A minimal src/ header making `Finish` and `Set` Status-returning so
# call-site fixtures have a callee set to match against. `Append` is
# deliberately ambiguous: declared both Status- and void-returning, as
# in the real tree (JsonValue::Append vs Trace::Append).
STATUS_HEADER = """\
#pragma once
namespace sitm {
class Writer {
 public:
  Status Finish();
  Status Set(int key);
  Status Append(int value);
};
class Trace {
 public:
  void Append(int value);
};
}  // namespace sitm
"""


def _build_tree(tmp, files):
    for rel, content in files.items():
        path = os.path.join(tmp, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)


def _rules(findings):
    return sorted({f.rule for f in findings})


def _lint(files):
    with tempfile.TemporaryDirectory() as tmp:
        _build_tree(tmp, files)
        return lint_sitm.run_lint(tmp)


def test_bare_status_call_is_flagged():
    findings = _lint({
        "src/w.h": STATUS_HEADER,
        "src/u.cc": "void F(Writer& w) {\n  w.Finish();\n}\n",
    })
    assert any(f.rule == "discarded-status" and f.line == 2
               for f in findings), findings


def test_consumed_status_call_is_clean():
    findings = _lint({
        "src/w.h": STATUS_HEADER,
        "src/u.cc": ("void F(Writer& w) {\n"
                     "  const Status s = w.Finish();\n"
                     "  if (!w.Finish().ok()) return;\n"
                     "}\n"),
    })
    assert not [f for f in findings if f.rule == "discarded-status"], findings


def test_void_cast_of_status_is_flagged_even_for_ambiguous_names():
    # Bare `t.Append(1);` must NOT be flagged (Trace::Append is void),
    # but `(void)w.Append(1);` must be: nobody casts a void call to void.
    findings = _lint({
        "src/w.h": STATUS_HEADER,
        "src/u.cc": ("void F(Writer& w, Trace& t) {\n"
                     "  t.Append(1);\n"
                     "  (void)w.Append(1);\n"
                     "}\n"),
    })
    flagged = [f for f in findings if f.rule == "discarded-status"]
    assert [f.line for f in flagged] == [3], findings


def test_allow_marker_suppresses_discarded_status():
    findings = _lint({
        "src/w.h": STATUS_HEADER,
        "src/u.cc": ("void F(Writer& w) {\n"
                     "  // best-effort flush: sitm-lint: allow(discarded-status)\n"
                     "  w.Finish();\n"
                     "}\n"),
    })
    assert not [f for f in findings if f.rule == "discarded-status"], findings


def test_status_call_inside_string_or_comment_is_ignored():
    findings = _lint({
        "src/w.h": STATUS_HEADER,
        "src/u.cc": ('void F() {\n'
                     '  // w.Finish();\n'
                     '  const char* doc = "w.Finish();";\n'
                     '  (void)doc;\n'
                     '}\n'),
    })
    assert not [f for f in findings if f.rule == "discarded-status"], findings


def test_naked_thread_flagged_outside_the_executor():
    findings = _lint({
        "src/core/runner.cc": ("#include <thread>\n"
                               "void F() { std::thread t([] {}); t.join(); }\n"),
        # base/ is no substrate: only sched/executor.* may own threads.
        "src/base/pool.cc": "#include <thread>\nstd::thread worker;\n",
    })
    flagged = [f for f in findings if f.rule == "naked-thread"]
    assert len(flagged) == 2, findings


def test_naked_thread_exempt_in_executor_and_when_allowed():
    findings = _lint({
        "src/sched/executor.h": ("#pragma once\n#include <thread>\n"
                                 "std::thread worker;\n"),
        "src/sched/executor.cc": "#include <thread>\nstd::thread worker;\n",
        "tests/stress.cc": ("// sitm-lint: allow(naked-thread)\n"
                            "std::thread submitter;\n"),
    })
    assert not [f for f in findings if f.rule == "naked-thread"], findings


def test_thread_type_and_static_accesses_are_not_naked_threads():
    # std::thread::id and ::hardware_concurrency name no thread of
    # execution — legal anywhere.
    findings = _lint({
        "src/core/ids.cc": ("#include <thread>\n"
                            "std::thread::id Current();\n"
                            "unsigned Hc() {"
                            " return std::thread::hardware_concurrency(); }\n"),
    })
    assert not [f for f in findings if f.rule == "naked-thread"], findings


def test_nondeterministic_rng_flagged_outside_base_rng():
    findings = _lint({
        "src/mining/sample.cc": "#include <random>\nstd::mt19937 gen;\n",
        "tests/fuzz.cc": "std::random_device rd;\n",
    })
    flagged = [f for f in findings if f.rule == "nondeterministic-rng"]
    assert len(flagged) == 2, findings


def test_rng_in_base_rng_header_is_exempt():
    findings = _lint({
        "src/base/rng.h": ("#pragma once\n"
                           "#include <random>\n"
                           "using Engine = std::mt19937_64;\n"),
    })
    assert not [f for f in findings if f.rule == "nondeterministic-rng"], findings


def test_header_without_pragma_once_is_flagged():
    findings = _lint({
        "src/a.h": "#ifndef A_H_\n#define A_H_\n#endif\n",
        "src/b.h": "#pragma once\nint x();\n",
    })
    flagged = [f for f in findings if f.rule == "pragma-once"]
    assert len(flagged) == 1 and flagged[0].path.endswith("a.h"), findings


def test_parent_relative_and_src_prefixed_includes_are_flagged():
    findings = _lint({
        "src/core/a.cc": ('#include "../base/status.h"\n'
                          '#include "src/base/status.h"\n'
                          '#include "base/status.h"\n'),
    })
    flagged = [f for f in findings if f.rule == "include-convention"]
    assert [f.line for f in flagged] == [1, 2], findings


def test_findings_are_sorted_and_main_exit_codes():
    with tempfile.TemporaryDirectory() as tmp:
        _build_tree(tmp, {
            "src/z.h": "int z();\n",
            "src/a.cc": '#include "../z.h"\n',
        })
        findings = lint_sitm.run_lint(tmp)
        assert findings == sorted(
            findings, key=lambda f: (f.path, f.line, f.rule))
        assert lint_sitm.main(["--root", tmp]) == 1
    assert lint_sitm.main(["--root", os.path.join(tmp, "gone")]) == 2


def test_lock_scope_io_flagged_inside_mutexlock():
    findings = _lint({
        "src/core/cache.cc": ("#include <fstream>\n"
                              "void F() {\n"
                              "  MutexLock lock(mu_);\n"
                              "  std::ofstream out(path_);\n"
                              "  out << blob_;\n"
                              "}\n"),
    })
    flagged = [f for f in findings if f.rule == "lock-scope-io"]
    assert [f.line for f in flagged] == [4], findings


def test_lock_scope_io_quiet_outside_the_region_and_in_nested_scope():
    # The same tokens before the lock, after the region's scope closes,
    # and with an allow() escape stay quiet; a *nested* scope inside the
    # region is still inside the region.
    findings = _lint({
        "src/core/a.cc": ("void F() {\n"
                          "  std::ofstream out(path_);\n"
                          "  {\n"
                          "    MutexLock lock(mu_);\n"
                          "    counter_++;\n"
                          "  }\n"
                          "  out << blob_;\n"
                          "}\n"),
        "src/core/b.cc": ("void G() {\n"
                          "  MutexLock lock(mu_);\n"
                          "  if (dirty_) {\n"
                          "    // startup only: sitm-lint: allow(lock-scope-io)\n"
                          "    std::ifstream in(path_);\n"
                          "  }\n"
                          "}\n"),
        "src/core/c.cc": ("void H() {\n"
                          "  MutexLock lock(mu_);\n"
                          "  if (dirty_) {\n"
                          "    fclose(file_);\n"
                          "  }\n"
                          "}\n"),
    })
    flagged = [f for f in findings if f.rule == "lock-scope-io"]
    assert len(flagged) == 1 and flagged[0].path.endswith("c.cc"), findings


def test_lock_scope_tracks_manual_lock_and_early_unlock():
    # mu_.Lock()/mu_.Unlock() delimit a region too — I/O between them is
    # flagged, I/O after the early Unlock is not, and a *different*
    # mutex's Unlock does not close the region.
    findings = _lint({
        "src/core/m.cc": ("void F() {\n"
                          "  mu_.Lock();\n"
                          "  fwrite(buf, 1, n, file_);\n"
                          "  mu_.Unlock();\n"
                          "  fread(buf, 1, n, file_);\n"
                          "}\n"
                          "void G() {\n"
                          "  a_.Lock();\n"
                          "  b_.Unlock();\n"
                          "  fflush(file_);\n"
                          "}\n"),
    })
    flagged = [f for f in findings if f.rule == "lock-scope-io"]
    assert [f.line for f in flagged] == [3, 10], findings


def test_lock_scope_requires_annotation_marks_the_body():
    findings = _lint({
        "src/core/r.cc": ("void Flush() SITM_REQUIRES(mu_) {\n"
                          "  fwrite(buf_, 1, n_, file_);\n"
                          "}\n"
                          "void Other() {\n"
                          "  fwrite(buf_, 1, n_, file_);\n"
                          "}\n"),
    })
    flagged = [f for f in findings if f.rule == "lock-scope-io"]
    assert [f.line for f in flagged] == [2], findings


def test_lock_scope_store_and_executor_rules():
    findings = _lint({
        "src/storage/s.cc": ("void F() {\n"
                             "  MutexLock lock(mu_);\n"
                             "  writer_->Append(record);\n"
                             "  writer_->Finish();\n"
                             "}\n"),
        "src/query/q.cc": ("void G() {\n"
                           "  MutexLock lock(mu_);\n"
                           "  ParallelFor(executor_, n, fn);\n"
                           "  RunGraph(executor_, std::move(graph));\n"
                           "  executor_->Run(std::move(graph2));\n"
                           "}\n"),
    })
    store = [f for f in findings if f.rule == "lock-scope-store"]
    execf = [f for f in findings if f.rule == "lock-scope-executor"]
    assert [f.line for f in store] == [3, 4], findings
    assert [f.line for f in execf] == [3, 4, 5], findings


def test_lock_scope_store_quiet_for_non_store_append_outside_lock():
    # Trace::Append-style calls (receiver is not a writer/store) and
    # store calls outside any region stay quiet.
    findings = _lint({
        "src/core/t.cc": ("void F() {\n"
                          "  MutexLock lock(mu_);\n"
                          "  trace_.Append(span);\n"
                          "}\n"
                          "void G() {\n"
                          "  writer_->Finish();\n"  # no lock held
                          "}\n"),
    })
    assert not [f for f in findings if f.rule == "lock-scope-store"], findings


def test_wait_without_predicate_loop_is_flagged():
    findings = _lint({
        "src/core/w.cc": ("void F() {\n"
                          "  MutexLock lock(mu_);\n"
                          "  cv_.Wait(lock);\n"
                          "}\n"),
    })
    flagged = [f for f in findings if f.rule == "lock-wait-no-predicate"]
    assert [f.line for f in flagged] == [3], findings


def test_wait_inside_predicate_loops_is_quiet():
    findings = _lint({
        # Same-statement loop, braced while body, and do-while.
        "src/core/w.cc": ("void F() {\n"
                          "  MutexLock lock(mu_);\n"
                          "  while (busy_) cv_.Wait(lock);\n"
                          "  while (queue_.empty() && !stop_) {\n"
                          "    cv_.Wait(lock);\n"
                          "  }\n"
                          "  do {\n"
                          "    cv_.Wait(lock);\n"
                          "  } while (draining_);\n"
                          "}\n"),
    })
    assert not [f for f in findings
                if f.rule == "lock-wait-no-predicate"], findings


def test_missing_nodiscard_on_status_and_result_declarations():
    findings = _lint({
        "src/core/api.h": ("#pragma once\n"
                           "namespace sitm {\n"
                           "class Api {\n"
                           " public:\n"
                           "  Status Open(const std::string& path);\n"
                           "  [[nodiscard]] Status Close();\n"
                           "  Result<int> Count() const;\n"
                           "  void Reset();\n"
                           "};\n"
                           "Status Free();\n"
                           "}  // namespace sitm\n"),
    })
    flagged = [f for f in findings if f.rule == "missing-nodiscard"]
    assert [f.line for f in flagged] == [5, 7, 10], findings


def test_missing_nodiscard_exemptions():
    findings = _lint({
        # friend declarations cannot carry attributes (C++17); local
        # variables inside inline bodies, Status *parameters*, multiline
        # [[nodiscard]] declarations, and allow() escapes stay quiet.
        "src/core/ok.h": ("#pragma once\n"
                          "class Ok {\n"
                          "  friend Status Touch(Ok& ok);\n"
                          "  [[nodiscard]] Result<int>\n"
                          "  Longname(int a, int b);\n"
                          "  void Take(Status s);\n"
                          "  int Get() { Status s = Probe(); return 0; }\n"
                          "  // fire-and-forget: sitm-lint: allow(missing-nodiscard)\n"
                          "  Status Post();\n"
                          "};\n"),
    })
    assert not [f for f in findings if f.rule == "missing-nodiscard"], findings


def test_missing_nodiscard_only_scans_src_headers():
    findings = _lint({
        "tests/helper.h": "Status Helper();\n",
        "src/core/impl.cc": "Status Impl() { return Status::OK(); }\n",
    })
    assert not [f for f in findings if f.rule == "missing-nodiscard"], findings


def test_live_tree_is_clean():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    findings = lint_sitm.run_lint(root)
    assert not findings, "\n".join(str(f) for f in findings)


def main():
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    failures = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except AssertionError as err:
            failures += 1
            print(f"FAIL {name}: {err}")
    print(f"{len(tests) - failures}/{len(tests)} passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
