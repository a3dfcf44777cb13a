/**
 * @file
 * Declarative job definitions: load a complete Job from an ini-style
 * description, so new benchmarks can be added and shared without
 * writing C++ (the `uvmasync run --jobfile` path).
 *
 * Format (KvConfig syntax):
 *
 *   [job]
 *   name = spmv
 *   repeats = 1              # optional, default 1
 *   prefetch_each_launch = false
 *
 *   [buffer.0]               # buffers numbered 0..N contiguously
 *   name = values
 *   mib = 256                # size (or `kib = `, or `bytes = `)
 *   host_init = true
 *   host_consumed = false
 *
 *   [kernel.0]               # kernels numbered 0..M contiguously
 *   name = spmv_kernel
 *   blocks = 4096
 *   threads = 256
 *   total_load_mib = 512
 *   shared_kib = 16
 *   flops_per_element = 2
 *   ints_per_element = 6     # optional
 *   ctrl_per_element = 1.5   # optional
 *   store_ratio = 0.05       # optional
 *   warps_to_saturate = 10   # optional
 *   async_penalty = 1.0      # optional
 *   depends = 0, 2           # optional declared DAG (lint-checked)
 *   # comma-separated: bufferId:pattern:rw[:touched_fraction][:nostage]
 *   buffers = 0:sequential:r, 2:random:r:1.0:nostage, 3:sequential:w
 */

#ifndef UVMASYNC_WORKLOADS_JOB_LOADER_HH
#define UVMASYNC_WORKLOADS_JOB_LOADER_HH

#include <cstdint>
#include <string>

#include "analysis/diagnostic.hh"
#include "common/kv_config.hh"
#include "runtime/job.hh"

namespace uvmasync
{

/**
 * Build a Job from a parsed description; fatal() on malformed input.
 *
 * Unknown keys are an error: with @p diags null they fatal()
 * immediately (with a did-you-mean hint); otherwise they are
 * collected as UAL013/UAL014 diagnostics and loading continues, so a
 * linter can report every problem in one run.
 */
Job jobFromConfig(const KvConfig &kv,
                  DiagnosticEngine *diags = nullptr);

/** Build a Job from a description file. */
Job loadJobFile(const std::string &path);

/**
 * The journal/store identity of a job file's content: the raw FNV-1a
 * state over its bytes, with one more 0x01 byte when the run uses
 * pinned host memory (pinning changes transfer costs). Editing the
 * file therefore invalidates a stale journal or store entry.
 */
std::uint64_t jobFileBaseSeed(const std::string &contents, bool pinned);

} // namespace uvmasync

#endif // UVMASYNC_WORKLOADS_JOB_LOADER_HH
