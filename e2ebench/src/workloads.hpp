#pragma once
// The benchmark's workloads (see ../README.md for why each exists).

#include "common.hpp"

namespace e2e {

/// How far a solver's reported relative error (from the core-norm identity
/// ||X||^2 - ||G||^2) may sit from the explicitly recomputed one, as a share
/// of eps. Measured: about 1e-12 in fp64, 1e-6 on the fp32 STHOSVD, and up
/// to 1.3e-4 (0.013 eps) on the fp32 serve jobs, whose error of 1e-3 leaves
/// ||X||^2 - ||G||^2 at 1e-6 ||X||^2, where fp32 rounding of the two norms
/// shows.
constexpr double kAgreement = 0.05;

/// `ra-hcci` (RA-HOSI-DT on an hcci-like fp64 tensor) and `sthosvd-synth`
/// (Gram+EVD STHOSVD on a synthetic fp32 Tucker tensor): set-up, timed P=4
/// and P=1 solves, and explicit-reconstruction checks; with args.trace, the
/// per-layer run instead.
void run_solve_workload(const Args& args, Result& result);

/// The serve probe of every traced run: a closed loop of small HOSI-DT and
/// RA-HOSI-DT jobs through serve::Scheduler with result-cache repeats,
/// reporting the serve.* and model.plan_s per-layer metrics.
void run_serve_probe(const Args& args, Result& result);

}  // namespace e2e
