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
// column data read by any session flows through one bounded block cache,
// so the whole server's resident footprint honours one byte budget. The
// manager's per-column binding is the only record of what a column reads
// (its matrix, a provider set by SetColumnProvider, or its spill files);
// this class publishes into it and keeps no registry of its own. The
// BufferManager is internally synchronised (sharded); sessions pin blocks
// concurrently.

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

  /// A paged source over the binding of `table.column` in the shared
  /// buffer pool (one bounded footprint across sessions). One source per
  /// data object. It reads whatever the column's binding holds at each
  /// pin: a later SetColumnProvider, spill or reclaim changes what it
  /// reads, so it stays valid for the column's whole life.
  Result<std::shared_ptr<storage::PagedColumnSource>> GetColumnSource(
      const std::string& table, std::size_t column);

  /// Publishes an explicit BlockProvider as what `table.column` reads —
  /// the cold-tier deployment of paper Section 4 ("the server may store
  /// the base data ... the touch device may store only small samples"):
  /// the catalog's table supplies schema, row count and sample
  /// hierarchies, while block faults go to the provider (e.g. a
  /// RemoteBlockProvider). Every source of the column, handed out before
  /// this call or after, faults through it. The provider's geometry must
  /// be the binding's: the column's type and row count and the pool's
  /// rows_per_block (InvalidArgument otherwise, and nothing changes).
  Status SetColumnProvider(const std::string& table, std::size_t column,
                           std::shared_ptr<cache::BlockProvider> provider);

  /// Spills every column of `table` to disk through `spiller` and
  /// publishes the resulting cache::FileBlockProviders as what the
  /// columns read — the disk tier: after this, a table many times the
  /// buffer budget explores through the pool's bounded resident set,
  /// faulting blocks from the spill files. The spiller must write the
  /// pool's rows_per_block (InvalidArgument before any file is written
  /// otherwise). Nothing is published until every file is written and
  /// validated, and a file replaces its predecessor only once complete,
  /// so a failed spill leaves every binding intact, whether it reads the
  /// matrix or an earlier spill's files.
  ///
  /// With `reclaim_raw`, the spill then actually frees memory: the
  /// table's matrix storage is released (storage::Table::ReleaseRaw), so
  /// the tracked resident bytes of the table drop to ~0 and the pool's
  /// byte budget becomes the only bound on base-data residency — the
  /// out-of-core promise made literal. The spill is published before the
  /// matrix is released, so every reader finds the data: sample
  /// hierarchies already built hold their own copies; pool sources, old
  /// and new, read the spill; a fill that was copying from the matrix
  /// finishes before the release, and one that finds the matrix gone
  /// retries once on the spill; the table's own point reads and
  /// whole-column builds go through pool sources of the same bindings.
  Status SpillTable(const std::string& table, storage::TableSpiller& spiller,
                    bool reclaim_raw = false);

  /// SpillTable's PAX variant: the whole table goes to ONE multi-column
  /// block file (storage::TableSpiller::SpillTablePax), published for
  /// every column under one shared owner — a block faulted for one
  /// attribute is resident for all of them, so fat-table tuple probes
  /// cost one fault instead of one per column. Same geometry rule,
  /// failure contract and `reclaim_raw` semantics as SpillTable.
  Status SpillTablePax(const std::string& table,
                       storage::TableSpiller& spiller,
                       bool reclaim_raw = false);

  /// Number of distinct (table, column) hierarchies built so far.
  std::size_t hierarchy_count() const;

  /// Bytes held by all shared sample copies.
  std::size_t sample_bytes() const;

 private:
  using ColumnKey = std::pair<std::string, std::size_t>;

  /// InvalidArgument unless `spiller` writes the pool's rows_per_block.
  Status CheckSpillGeometry(const storage::TableSpiller& spiller) const;

  /// The shared tail of SpillTable and SpillTablePax: publishes
  /// `providers[c]` as column c's provider of `table` and, with
  /// `reclaim_raw`, releases the matrix.
  Status PublishSpill(
      const std::shared_ptr<storage::Table>& table,
      const std::vector<std::shared_ptr<cache::BlockProvider>>& providers,
      bool reclaim_raw);

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

  mutable std::mutex mu_;
  std::map<ColumnKey, HierarchyEntry> hierarchies_;
};

}  // namespace dbtouch::core

#endif  // DBTOUCH_CORE_SHARED_STATE_H_
