// The workloads. Each fills `outcome` with its end-to-end metrics
// (untraced run, spans == nullptr) or its per-layer metrics (traced run)
// and returns the number of replay workers it used.
#pragma once

#include "harness.h"

namespace webcc::benchmark {

unsigned RunPaperTables(const Options& opts, SpanLog* spans, Outcome& outcome);
unsigned RunWriteStorm(const Options& opts, SpanLog* spans, Outcome& outcome);

}  // namespace webcc::benchmark
