/**
 * @file
 * The trace corpus manifest (`traces.json`): declares external
 * captured traces as named workloads so BatchRunner and every harness
 * fan out over them exactly like the synthetic suite. Schema:
 *
 *   {
 *     "version": 1,
 *     "traces": [
 *       {
 *         "name": "xalanc",             // workload name (may shadow
 *                                       // a synthetic spec)
 *         "format": "native",           // native | champsim | sift
 *         "file": "captures/x.trc",     // native: single file
 *         "files": [                    // champsim/sift: per-core
 *           {"path": "x.core0.champsim", "core": 0}, ...
 *         ],
 *         "timing": "ip",               // champsim: period | ip
 *         "period_ps": 1000,            // champsim(period) & sift
 *         "addr_bias": 64,              // champsim address bias
 *         "time_scale": 1.0             // optional timestamp scaling
 *       }
 *     ]
 *   }
 *
 * Relative paths resolve against the manifest's own directory, so a
 * corpus directory is relocatable as a unit. Unknown keys are fatal —
 * a typo'd knob must not silently fall back to a default.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "trace/core_merge.h"

namespace mempod {

/** One manifest-declared external trace. */
struct ExternalTraceSpec
{
    std::string name;
    std::string format;           //!< "native" | "champsim" | "sift"
    std::vector<CoreFile> files;
    std::string timing = "period"; //!< champsim: "period" | "ip"
    TimePs periodPs = 1000;
    std::uint64_t addrBias = 0;
    double timeScale = 1.0;
};

/**
 * Parse a traces.json manifest; fatal with the offending key/line on
 * malformed input. Relative file paths are resolved against the
 * manifest's directory.
 */
std::vector<ExternalTraceSpec> loadTraceManifest(
    const std::string &path);

} // namespace mempod
