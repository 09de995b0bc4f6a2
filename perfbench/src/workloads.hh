/**
 * @file
 * The benchmark workloads: three figure-shaped sweeps built from the
 * public Sweep API, with the same row labels (and so the same
 * runSeed() streams) as the figure binaries they mirror.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness/sweep.hh"

namespace perfbench
{

using namespace schedtask;

struct WorkloadDef
{
    const char *name;
    /** The sweep for a master seed (seed 1 = the figure binaries). */
    Sweep (*build)(std::uint64_t seed);
    /** Label of the cell re-run through SweepRunner as a self-test. */
    const char *selfTestLabel;
    /** Columns whose change vs their baseline is compared with the
     *  paper (gmean over the rows). */
    std::vector<std::string> gapCols;
    /** Compare application performance (true) or instruction
     *  throughput (false). */
    bool appPerf;
    /** The paper's gmean change for those columns, in percent. */
    double paperPercent;
};

/** Every workload, in documentation order. */
const std::vector<WorkloadDef> &workloads();

/** Lookup by name; nullptr when unknown. */
const WorkloadDef *findWorkload(const std::string &name);

/**
 * Display label of every request: "row/col", except that baselines
 * are "row/baseline #k" (k-th baseline of the row) instead of the
 * config-fingerprint label, so committed digests survive changes to
 * what the fingerprint mixes in.
 */
std::vector<std::string> runLabels(const Sweep &sweep);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
