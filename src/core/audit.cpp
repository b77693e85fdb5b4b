#include "core/audit.hpp"

#include <cmath>
#include <sstream>
#include <utility>

namespace stash {

std::string_view to_string(AuditViolationKind kind) noexcept {
  switch (kind) {
    case AuditViolationKind::PlmChunkMissing: return "plm-chunk-missing";
    case AuditViolationKind::ChunkPlmMissing: return "chunk-plm-missing";
    case AuditViolationKind::PlmBitmapShape: return "plm-bitmap-shape";
    case AuditViolationKind::CellOutsideChunk: return "cell-outside-chunk";
    case AuditViolationKind::CellKeyMalformed: return "cell-key-malformed";
    case AuditViolationKind::SummaryInvalid: return "summary-invalid";
    case AuditViolationKind::CellCountDrift: return "cell-count-drift";
    case AuditViolationKind::FreshnessInvalid: return "freshness-invalid";
    case AuditViolationKind::RollupMismatch: return "rollup-mismatch";
    case AuditViolationKind::RoutingMalformed: return "routing-malformed";
    case AuditViolationKind::RingInconsistent: return "ring-inconsistent";
  }
  return "?";
}

std::size_t AuditReport::count(AuditViolationKind kind) const noexcept {
  std::size_t n = 0;
  for (const auto& v : violations)
    if (v.kind == kind) ++n;
  return n;
}

void AuditReport::merge(AuditReport&& other) {
  for (auto& v : other.violations) violations.push_back(std::move(v));
  chunks_checked += other.chunks_checked;
  cells_checked += other.cells_checked;
  rollups_checked += other.rollups_checked;
  routes_checked += other.routes_checked;
  truncated = truncated || other.truncated;
}

std::string AuditReport::to_string() const {
  std::ostringstream out;
  out << (ok() ? "audit OK" : "audit FAILED") << ": " << violations.size()
      << " violation(s) over " << chunks_checked << " chunks, "
      << cells_checked << " cells, " << rollups_checked << " rollups, "
      << routes_checked << " routes" << (truncated ? " [truncated]" : "");
  for (const auto& v : violations)
    out << "\n  [" << stash::to_string(v.kind) << "] " << v.detail;
  return out.str();
}

bool GraphAuditor::add(AuditReport& report, AuditViolationKind kind,
                       std::string detail) const {
  if (report.violations.size() >= options_.max_violations) {
    report.truncated = true;
    return false;
  }
  report.violations.push_back({kind, std::move(detail)});
  return true;
}

namespace {

/// "s6/Day 9q8y@2015-02-02" — where a violation lives.
std::string where(int level, const ChunkKey& chunk) {
  std::string out = resolution_of_level(level).to_string();
  out.push_back(' ');
  out += chunk.label();
  return out;
}

bool summary_valid(const Summary& summary) {
  const std::uint64_t count = summary.observation_count();
  for (const auto& attr : summary.attributes()) {
    if (attr.count != count) return false;  // attribute counts must agree
    if (attr.count == 0) continue;
    if (!std::isfinite(attr.min) || !std::isfinite(attr.max) ||
        !std::isfinite(attr.sum) || !std::isfinite(attr.sum_sq))
      return false;
    if (attr.min > attr.max) return false;
    if (attr.sum_sq < 0.0) return false;
  }
  return true;
}

}  // namespace

void GraphAuditor::check_chunks(const StashGraph& graph,
                                AuditReport& report) const {
  const int chunk_precision = graph.config().chunk_precision;
  std::size_t counted_cells = 0;

  for (int lvl = 0; lvl < kNumLevels; ++lvl) {
    const Resolution res = resolution_of_level(lvl);

    // PLM -> graph: every "cached" bitmap belongs to a live chunk of the
    // right shape, with at least one contribution recorded.
    graph.plm().for_each_chunk(lvl, [&](const ChunkKey& chunk,
                                        const DynamicBitset& bits) {
      if (report.truncated) return;
      if (graph.find_chunk(res, chunk) == nullptr)
        add(report, AuditViolationKind::PlmChunkMissing,
            where(lvl, chunk) + ": PLM tracks a chunk with no resident data");
      if (bits.size() != chunk.day_count() || bits.none())
        add(report, AuditViolationKind::PlmBitmapShape,
            where(lvl, chunk) + ": bitmap has " + std::to_string(bits.size()) +
                " bits (" + std::to_string(bits.count()) + " set), chunk spans " +
                std::to_string(chunk.day_count()) + " day(s)");
    });

    // graph -> PLM, plus per-cell and freshness checks.
    graph.for_each_chunk(res, [&](const ChunkKey& chunk,
                                  const StashGraph::ChunkData& data) {
      if (report.truncated) return;
      ++report.chunks_checked;
      counted_cells += data.cells.size();

      if (!graph.plm().is_known(lvl, chunk))
        add(report, AuditViolationKind::ChunkPlmMissing,
            where(lvl, chunk) + ": resident chunk unknown to the PLM");

      if (!std::isfinite(data.freshness.value) || data.freshness.value < 0.0 ||
          data.freshness.last_update < 0 ||
          (options_.now && data.freshness.last_update > *options_.now))
        add(report, AuditViolationKind::FreshnessInvalid,
            where(lvl, chunk) + ": freshness value " +
                std::to_string(data.freshness.value) + " last_update " +
                std::to_string(data.freshness.last_update));

      for (const auto& [key, summary] : data.cells) {
        if (report.truncated) break;
        ++report.cells_checked;
        // A malformed key would throw from geohash/bin unpacking below.
        try {
          (void)key.geohash_str();
          (void)key.bin();
        } catch (const std::exception& e) {
          add(report, AuditViolationKind::CellKeyMalformed,
              where(lvl, chunk) + ": cell key does not unpack: " + e.what());
          continue;
        }
        if (level_index(key.resolution()) != lvl ||
            chunk_of(key, chunk_precision) != chunk)
          add(report, AuditViolationKind::CellOutsideChunk,
              where(lvl, chunk) + ": cell " + key.label() +
                  " belongs to a different chunk or level");
        if (!summary_valid(summary))
          add(report, AuditViolationKind::SummaryInvalid,
              where(lvl, chunk) + ": cell " + key.label() +
                  " has inconsistent or non-finite statistics");
      }
    });
    if (report.truncated) return;
  }

  if (!report.truncated && counted_cells != graph.total_cells())
    add(report, AuditViolationKind::CellCountDrift,
        "graph reports " + std::to_string(graph.total_cells()) +
            " cells, levels hold " + std::to_string(counted_cells));
}

void GraphAuditor::check_rollups(const StashGraph& graph,
                                 AuditReport& report) const {
  const int chunk_precision = graph.config().chunk_precision;
  for (int lvl = 0; lvl < kNumLevels && !report.truncated; ++lvl) {
    const Resolution res = resolution_of_level(lvl);
    graph.for_each_chunk(res, [&](const ChunkKey& chunk,
                                  const StashGraph::ChunkData& data) {
      if (report.truncated) return;
      if (!graph.chunk_complete(res, chunk)) return;

      for (const auto& candidate :
           chunk_child_levels(res, chunk, chunk_precision)) {
        std::size_t probes = 0;
        if (!graph.level_complete(candidate, probes)) continue;

        // Both the parent and a covering child level are complete: §V-B
        // exactness says rolling the children up must reproduce the parent.
        ++report.rollups_checked;
        CellSummaryMap rolled;
        (void)graph.roll_up(candidate, rolled);

        if (rolled.size() != data.cells.size()) {
          add(report, AuditViolationKind::RollupMismatch,
              where(lvl, chunk) + ": parent holds " +
                  std::to_string(data.cells.size()) + " cells, roll-up from " +
                  candidate.res.to_string() + " yields " +
                  std::to_string(rolled.size()));
          continue;
        }
        for (const auto& [key, summary] : data.cells) {
          const auto it = rolled.find(key);
          if (it == rolled.end()) {
            if (!add(report, AuditViolationKind::RollupMismatch,
                     where(lvl, chunk) + ": cell " + key.label() +
                         " absent from the " + candidate.res.to_string() +
                         " roll-up"))
              return;
            continue;
          }
          if (!summary.approx_equals(it->second, options_.rollup_rel_tol))
            if (!add(report, AuditViolationKind::RollupMismatch,
                     where(lvl, chunk) + ": cell " + key.label() +
                         " disagrees with the " + candidate.res.to_string() +
                         " roll-up"))
              return;
        }
      }
    });
  }
}

AuditReport GraphAuditor::audit(const StashGraph& graph) const {
  AuditReport report;
  check_chunks(graph, report);
  if (options_.check_rollup && !report.truncated)
    check_rollups(graph, report);
  return report;
}

AuditReport GraphAuditor::audit_routing(const RoutingTable& routing,
                                        std::uint32_t num_nodes,
                                        std::uint32_t self) const {
  AuditReport report;
  routing.for_each_entry([&](int level, const ChunkKey& chunk,
                             std::uint32_t helper, sim::SimTime replicated_at) {
    if (report.truncated) return;
    ++report.routes_checked;
    if (level < 0 || level >= kNumLevels) {
      add(report, AuditViolationKind::RoutingMalformed,
          "routing entry with out-of-range level " + std::to_string(level));
      return;
    }
    try {
      (void)chunk.prefix_str();
      (void)chunk.bin();
    } catch (const std::exception& e) {
      add(report, AuditViolationKind::RoutingMalformed,
          "routing entry with malformed chunk key: " + std::string(e.what()));
      return;
    }
    if (helper >= num_nodes)
      add(report, AuditViolationKind::RoutingMalformed,
          where(level, chunk) + ": helper " + std::to_string(helper) +
              " outside the cluster (" + std::to_string(num_nodes) + " nodes)");
    else if (helper == self)
      add(report, AuditViolationKind::RoutingMalformed,
          where(level, chunk) + ": entry reroutes to the owner itself");
    if (replicated_at < 0)
      add(report, AuditViolationKind::RoutingMalformed,
          where(level, chunk) + ": negative replication timestamp");
  });
  return report;
}

AuditReport GraphAuditor::audit_ring(const RingView& ring,
                                     std::uint32_t total_slots) const {
  AuditReport report;
  if (ring.members.empty()) {
    add(report, AuditViolationKind::RingInconsistent,
        "epoch " + std::to_string(ring.epoch) + ": empty member set");
    return report;
  }
  for (std::size_t i = 0; i < ring.members.size(); ++i) {
    if (ring.members[i] >= total_slots)
      add(report, AuditViolationKind::RingInconsistent,
          "epoch " + std::to_string(ring.epoch) + ": member " +
              std::to_string(ring.members[i]) + " outside the " +
              std::to_string(total_slots) + " addressable slots");
    if (i > 0 && ring.members[i] <= ring.members[i - 1])
      add(report, AuditViolationKind::RingInconsistent,
          "epoch " + std::to_string(ring.epoch) +
              ": members not strictly sorted at index " + std::to_string(i) +
              " (" + std::to_string(ring.members[i - 1]) + " then " +
              std::to_string(ring.members[i]) + ")");
    if (report.truncated) return report;
  }
  return report;
}

}  // namespace stash
