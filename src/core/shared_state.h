// SharedState: the read-only half of the kernel, factored out so many
// concurrent sessions can explore one dataset.
//
// The single-user kernel of the paper owns everything: catalog, sample
// hierarchies, indexes, views, operator state. Serving many users forces a
// split: state that is a pure function of the data (catalog, sample
// hierarchies, base zone maps) is immutable once built and safe to share;
// state that depends on what one user is doing (views, operator state,
// result stream, session tracker) stays inside the per-session Kernel.
//
// Thread-safety contract: construction of shared artefacts (hierarchies,
// zone maps) happens under an internal mutex; everything handed out is
// immutable afterwards, so per-touch reads take no locks. Each artefact
// reads its base once, when it is built, through Table::ReadColumn, and
// keeps no pointer into it: a reclaim or a layout rotation later frees
// the matrix without touching them.
//
// The SharedState also owns the server-wide cache::BufferManager: base
// column data read by any session flows through one bounded block cache
// keyed by (table, column, block), so the whole server's resident
// footprint honours one byte budget. The BufferManager is internally
// synchronised (sharded); sessions pin blocks concurrently.

#ifndef DBTOUCH_CORE_SHARED_STATE_H_
#define DBTOUCH_CORE_SHARED_STATE_H_

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "cache/buffer_manager.h"
#include "common/result.h"
#include "common/status.h"
#include "index/zone_map.h"
#include "sampling/sample_hierarchy.h"
#include "storage/catalog.h"
#include "storage/paged_column.h"

namespace dbtouch::storage {
class TableSpiller;
}  // namespace dbtouch::storage

namespace dbtouch::core {

class SharedState {
 public:
  explicit SharedState(sampling::SampleHierarchyConfig sampling = {},
                       const cache::BufferManagerConfig& buffer = {});
  /// Kept for perfbench/touchbench.cc, which still calls it (ROADMAP
  /// direction 5). The bool is ignored: every hierarchy is built whole.
  SharedState(sampling::SampleHierarchyConfig sampling, bool,
              const cache::BufferManagerConfig& buffer)
      : SharedState(sampling, buffer) {}

  SharedState(const SharedState&) = delete;
  SharedState& operator=(const SharedState&) = delete;

  storage::Catalog& catalog() { return catalog_; }
  const storage::Catalog& catalog() const { return catalog_; }

  Status RegisterTable(std::shared_ptr<storage::Table> table) {
    return catalog_.Register(std::move(table));
  }

  /// The sample hierarchy over `table.column`, built whole on first
  /// request (one read of the column through Table::ReadColumn, whatever
  /// tier it lives in) and shared by every session thereafter. A block
  /// that cannot be read fails the build with its Status.
  Result<std::shared_ptr<const sampling::SampleHierarchy>>
  GetOrBuildHierarchy(const std::string& table, std::size_t column);

  /// The base-level (level 0) zone map of the column `hierarchy` samples,
  /// built on first request (through Table::ReadColumn, like the
  /// hierarchy) and shared by every object bound to that hierarchy. Keyed
  /// by hierarchy identity — not table name — so an object always prunes
  /// with a map over exactly the data it scans. A hierarchy retired by a
  /// re-registration of its table's name has no map to build
  /// (FailedPrecondition); handles given out before stay valid. The map
  /// is immutable, so per-touch MayMatch probes take no locks.
  Result<std::shared_ptr<const index::ZoneMap>> GetOrBuildBaseZoneMap(
      const std::shared_ptr<const sampling::SampleHierarchy>& hierarchy);

  /// The server-wide buffer pool every session's base-data reads share.
  cache::BufferManager& buffer_manager() { return buffer_; }
  const cache::BufferManager& buffer_manager() const { return buffer_; }

  /// A paged source reading `table.column` through the shared buffer pool
  /// (one bounded footprint across sessions). One source per data object.
  Result<std::shared_ptr<storage::PagedColumnSource>> GetColumnSource(
      const std::string& table, std::size_t column);

  /// Binds `table.column` base reads to an explicit BlockProvider — the
  /// cold-tier deployment of paper Section 4 ("the server may store the
  /// base data ... the touch device may store only small samples"): the
  /// catalog's table supplies schema, row count and sample hierarchies,
  /// while block faults go to the provider (e.g. a RemoteBlockProvider).
  /// Sources created by GetColumnSource after this call fault through it.
  /// The provider's geometry must match the table's row count.
  Status SetColumnProvider(const std::string& table, std::size_t column,
                           std::shared_ptr<cache::BlockProvider> provider);

  /// Spills every column of `table` to disk through `spiller` and rebinds
  /// the columns' base reads to the resulting cache::FileBlockProvider —
  /// the disk tier: after this, a table many times the buffer budget
  /// explores through the pool's bounded resident set, faulting blocks
  /// from the spill files. Columns are rebound only after every file is
  /// written and validated, and a file replaces its predecessor only once
  /// complete, so a failed spill leaves the current binding fully intact,
  /// whether it reads the matrix or an earlier spill's files.
  ///
  /// With `reclaim_raw`, the spill then actually frees memory: the
  /// table's matrix storage is released (storage::Table::ReleaseRaw), so
  /// the tracked resident bytes of the table drop to ~0 and the pool's
  /// byte budget becomes the only bound on base-data residency — the
  /// out-of-core promise made literal. Sample hierarchies already built
  /// hold their own copies and never read the base again. Remaining
  /// readers go through PagedColumnSource pins: data objects through
  /// their pool sources, later hierarchy and zone-map builds and
  /// Table::GetValue through the table's rebind sources. Racing readers
  /// are safe, not transparent: raw reads drain behind the table's
  /// release gate, and pool pins hold copies, so nothing frees under
  /// them. Pool sources handed out BEFORE the reclaim keep their
  /// in-memory binding, whose fills now fail; a kernel object rebinds
  /// its sources to the spill binding before its next probed gesture
  /// event (see src/storage/README.md, "Stale pool bindings", for the
  /// one window left open). Reclaim before opening the table to sessions
  /// for zero disruption.
  Status SpillTable(const std::string& table, storage::TableSpiller& spiller,
                    bool reclaim_raw = false);

  /// SpillTable's PAX variant: the whole table goes to ONE multi-column
  /// block file (storage::TableSpiller::SpillTablePax) and every column
  /// rebinds to that shared provider through the pool's shared PAX
  /// binding — a block faulted for one attribute is resident for all of
  /// them, so fat-table tuple probes cost one fault instead of one per
  /// column. Same failure contract and `reclaim_raw` semantics as
  /// SpillTable.
  Status SpillTablePax(const std::string& table,
                       storage::TableSpiller& spiller,
                       bool reclaim_raw = false);

  /// Number of distinct (table, column) hierarchies built so far.
  std::size_t hierarchy_count() const;

  /// Bytes held by all shared sample copies.
  std::size_t sample_bytes() const;

 private:
  using ColumnKey = std::pair<std::string, std::size_t>;

  /// SetColumnProvider against an already-resolved table identity — the
  /// SpillTable path, where the binding must pin the table the spill
  /// actually read, not whatever the name resolves to at bind time.
  Status BindColumnProvider(std::shared_ptr<storage::Table> table,
                            std::size_t column,
                            std::shared_ptr<cache::BlockProvider> provider);

  /// The shared tail of SpillTable and SpillTablePax: binds
  /// `providers[c]` as column c's provider of `table` and, with
  /// `reclaim_raw`, releases the matrix, rebinding point reads to each
  /// column's pool source.
  Status BindSpill(
      const std::shared_ptr<storage::Table>& table,
      const std::vector<std::shared_ptr<cache::BlockProvider>>& providers,
      bool reclaim_raw);

  /// GetColumnSource against a resolved table identity; requires mu_.
  Result<std::shared_ptr<storage::PagedColumnSource>> ColumnSourceLocked(
      const std::shared_ptr<storage::Table>& table, std::size_t column);

  storage::Catalog catalog_;
  sampling::SampleHierarchyConfig sampling_;
  cache::BufferManager buffer_;

  /// Cached artefacts pin the Table they were built over: the pin keeps
  /// the column's dictionary alive for the hierarchy and lets a later
  /// zone-map build read the same table, and identity-checking it detects
  /// a name being re-registered with new data (the stale entry is then
  /// rebuilt).
  struct HierarchyEntry {
    std::shared_ptr<storage::Table> table;
    std::shared_ptr<const sampling::SampleHierarchy> hierarchy;
    /// Built on the first GetOrBuildBaseZoneMap.
    std::shared_ptr<const index::ZoneMap> base_zone_map;
  };

  /// Explicit cold-tier provider (SetColumnProvider), pinned to the
  /// identity of the table it was validated against: a name re-registered
  /// with new data silently retires the override (the new table's
  /// in-memory blocks serve) instead of faulting stale remote data.
  struct ProviderEntry {
    /// Identity pin (like HierarchyEntry's): holding the shared_ptr rules
    /// out a recycled allocation masquerading as the validated table.
    std::shared_ptr<storage::Table> table;
    std::shared_ptr<cache::BlockProvider> provider;
  };

  mutable std::mutex mu_;
  std::map<ColumnKey, HierarchyEntry> hierarchies_;
  /// Consulted by GetColumnSource before defaulting to table blocks.
  std::map<ColumnKey, ProviderEntry> providers_;
};

}  // namespace dbtouch::core

#endif  // DBTOUCH_CORE_SHARED_STATE_H_
