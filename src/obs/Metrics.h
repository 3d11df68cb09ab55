//===----------------------------------------------------------------------===//
///
/// \file
/// The per-run metrics report (REPL `:stats`, bench `MULT_METRICS=1`).
///
/// The report answers the paper's accounting questions directly: where did
/// each processor's virtual time go (busy / idle / GC), how well did work
/// stealing perform, how deep did the task queues get, and what the
/// always-on latency histograms saw. It renders every counter once,
/// straight from the engine: per-processor counters are summed only when
/// the report is read, so no counter has a second copy to drift from.
///
//===----------------------------------------------------------------------===//

#ifndef MULT_OBS_METRICS_H
#define MULT_OBS_METRICS_H

#include "support/OutStream.h"

namespace mult {

class Engine;

/// Renders the last measured run of \p E human-readably. The first line
/// is always the `per-processor virtual time` table header.
void dumpMetrics(OutStream &OS, Engine &E);

} // namespace mult

#endif // MULT_OBS_METRICS_H
