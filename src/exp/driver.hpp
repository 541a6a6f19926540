#pragma once

/// The `rdv_bench` driver: list / describe / filter / run any
/// registered experiment, replacing the bespoke per-bench main()s.
namespace rdv::exp {

/// CLI entry point of the rdv_bench binary. Returns the process exit
/// code: 0 on success, 1 when an experiment failed (or --check found an
/// empty table), 2 on usage errors.
int run_main(int argc, const char* const* argv);

}  // namespace rdv::exp
