// Test oracle: QueryEngine's raw-resolution scan as it was before records
// stored their derived values (see raw_scan_oracle.cpp). Every record
// rebuilds all four raw tables, every metric is derived from those tables,
// and every metric, the metadata ones included, walks the records from the
// governing key-frame. The index walk over stored values must return
// exactly these points.
#pragma once

#include <cstdint>

#include "core/archive.hpp"
#include "core/query.hpp"

namespace mantra::oracle {

/// One raw scan of `query` over `reader` (the query's target is ignored),
/// key-frames loaded through `cache` under source id 0. Hour and day
/// resolutions fold the scanned cycles, as QueryEngine does when the rollups
/// are not used.
[[nodiscard]] core::QueryResult full_decode_raw_scan(
    const core::ArchiveReader& reader, core::BlockCache& cache,
    const core::Query& query,
    double sender_threshold_kbps = core::kSenderThresholdKbps);

}  // namespace mantra::oracle
