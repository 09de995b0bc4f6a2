/**
 * @file
 * Exporters for epoch telemetry (stats/epoch_trace.hh).
 *
 * Two formats:
 *  - JSON Lines: one epoch per line, stable field names, meant for
 *    regression diffing between techniques/revisions (jq/diff);
 *  - Chrome trace-event JSON ("traceEvents"): one duration event
 *    per core per epoch named after the dominant SuperFunction
 *    category, one instant event per SuperFunction lifecycle event
 *    on its core's track, plus counter tracks for cosine
 *    similarity, migrations and queued work. The file opens
 *    directly in Perfetto (ui.perfetto.dev) or chrome://tracing as
 *    a per-core timeline.
 *
 * A small strict JSON validator is included so tests and the
 * json_lint tool can check well-formedness without external
 * dependencies.
 */

#ifndef SCHEDTASK_HARNESS_TRACE_EXPORT_HH
#define SCHEDTASK_HARNESS_TRACE_EXPORT_HH

#include <string>
#include <string_view>
#include <vector>

#include "stats/epoch_trace.hh"

namespace schedtask
{

/** One epoch as a single-line JSON object (no trailing newline). */
std::string epochSampleJson(const EpochSample &sample);

/** JSON Lines document: one line per sample, each '\n'-terminated. */
std::string epochTraceJsonl(const std::vector<EpochSample> &samples);

/**
 * Chrome trace-event document. Timestamps are microseconds of
 * simulated time (cycles / (freq_ghz * 1000)).
 */
std::string chromeTraceJson(const std::vector<EpochSample> &samples,
                            const std::vector<SfEvent> &events,
                            double freq_ghz);

/** Write a file whole; throws std::runtime_error on I/O failure. */
void writeTextFile(const std::string &path, std::string_view content);

/** Strict RFC 8259 well-formedness check of one JSON document. */
bool validateJson(std::string_view text, std::string *error = nullptr);

/** Every non-empty line must be a valid JSON document. */
bool validateJsonLines(std::string_view text,
                       std::string *error = nullptr);

} // namespace schedtask

#endif // SCHEDTASK_HARNESS_TRACE_EXPORT_HH
