#include "core/shared_state.h"

#include <vector>

#include "common/macros.h"
#include "storage/spill.h"

namespace dbtouch::core {

namespace {

/// Rows each zone of a base zone map summarises.
constexpr std::int64_t kRowsPerZone = 4096;

}  // namespace

SharedState::SharedState(sampling::SampleHierarchyConfig sampling,
                         const cache::BufferManagerConfig& buffer)
    : sampling_(sampling), buffer_(buffer) {}

Result<std::shared_ptr<const sampling::SampleHierarchy>>
SharedState::GetOrBuildHierarchy(const std::string& table,
                                 std::size_t column) {
  DBTOUCH_ASSIGN_OR_RETURN(std::shared_ptr<storage::Table> t,
                           catalog_.Get(table));
  if (column >= t->schema().num_fields()) {
    return Status::OutOfRange("column " + std::to_string(column) +
                              " out of range for table '" + table + "'");
  }
  const ColumnKey key{table, column};
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = hierarchies_.find(key);
  if (it != hierarchies_.end() && it->second.table == t) {
    return it->second.hierarchy;
  }
  // First build, or the name was re-registered with a different table:
  // (re)build, which also retires the stale entry's zone map.
  std::shared_ptr<const sampling::SampleHierarchy> hierarchy;
  DBTOUCH_RETURN_IF_ERROR(
      t->ReadColumn(column, [&](storage::PagedColumnSource& base) {
        DBTOUCH_ASSIGN_OR_RETURN(
            sampling::SampleHierarchy built,
            sampling::SampleHierarchy::Build(base, sampling_));
        hierarchy = std::make_shared<const sampling::SampleHierarchy>(
            std::move(built));
        return Status::OK();
      }));
  hierarchies_[key] = HierarchyEntry{t, hierarchy, nullptr};
  return hierarchy;
}

Result<std::shared_ptr<const index::ZoneMap>>
SharedState::GetOrBuildBaseZoneMap(
    const std::shared_ptr<const sampling::SampleHierarchy>& hierarchy) {
  DBTOUCH_CHECK(hierarchy != nullptr);
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto& slot : hierarchies_) {
    HierarchyEntry& entry = slot.second;
    if (entry.hierarchy != hierarchy) {
      continue;
    }
    if (entry.base_zone_map == nullptr) {
      // Build now, under the lock; afterwards the zone map is read-only.
      DBTOUCH_RETURN_IF_ERROR(entry.table->ReadColumn(
          slot.first.second, [&](storage::PagedColumnSource& base) {
            DBTOUCH_ASSIGN_OR_RETURN(
                index::ZoneMap built,
                index::ZoneMap::Build(base, kRowsPerZone));
            entry.base_zone_map =
                std::make_shared<const index::ZoneMap>(std::move(built));
            return Status::OK();
          }));
    }
    return entry.base_zone_map;
  }
  return Status::FailedPrecondition(
      "sample hierarchy was retired: its table's name was re-registered");
}

Result<std::shared_ptr<storage::PagedColumnSource>>
SharedState::GetColumnSource(const std::string& table, std::size_t column) {
  DBTOUCH_ASSIGN_OR_RETURN(std::shared_ptr<storage::Table> t,
                           catalog_.Get(table));
  return buffer_.ColumnSource(t, column);
}

Status SharedState::SetColumnProvider(
    const std::string& table, std::size_t column,
    std::shared_ptr<cache::BlockProvider> provider) {
  DBTOUCH_ASSIGN_OR_RETURN(std::shared_ptr<storage::Table> t,
                           catalog_.Get(table));
  if (provider == nullptr) {
    return Status::InvalidArgument("null provider");
  }
  if (column >= t->schema().num_fields()) {
    return Status::OutOfRange("column " + std::to_string(column) +
                              " out of range for table '" + table + "'");
  }
  std::vector<std::shared_ptr<cache::BlockProvider>> providers(column + 1);
  providers[column] = std::move(provider);
  return buffer_.Publish(t, providers);
}

Status SharedState::CheckSpillGeometry(
    const storage::TableSpiller& spiller) const {
  if (spiller.options().rows_per_block != buffer_.config().rows_per_block) {
    return Status::InvalidArgument(
        "spill writes " + std::to_string(spiller.options().rows_per_block) +
        " rows per block, the pool reads " +
        std::to_string(buffer_.config().rows_per_block));
  }
  return Status::OK();
}

Status SharedState::SpillTable(const std::string& table,
                               storage::TableSpiller& spiller,
                               bool reclaim_raw) {
  DBTOUCH_ASSIGN_OR_RETURN(std::shared_ptr<storage::Table> t,
                           catalog_.Get(table));
  DBTOUCH_RETURN_IF_ERROR(CheckSpillGeometry(spiller));
  // Write (and validate) every column's file before publishing any: a
  // spill that fails halfway must not leave the table half on disk.
  std::vector<std::shared_ptr<cache::BlockProvider>> providers;
  providers.reserve(t->schema().num_fields());
  for (std::size_t column = 0; column < t->schema().num_fields();
       ++column) {
    DBTOUCH_ASSIGN_OR_RETURN(std::shared_ptr<cache::FileBlockProvider> p,
                             spiller.SpillColumn(t, column));
    providers.push_back(std::move(p));
  }
  return PublishSpill(t, providers, reclaim_raw);
}

Status SharedState::SpillTablePax(const std::string& table,
                                  storage::TableSpiller& spiller,
                                  bool reclaim_raw) {
  DBTOUCH_ASSIGN_OR_RETURN(std::shared_ptr<storage::Table> t,
                           catalog_.Get(table));
  DBTOUCH_RETURN_IF_ERROR(CheckSpillGeometry(spiller));
  // One file for the whole table: every column publishes it, under one
  // shared owner.
  DBTOUCH_ASSIGN_OR_RETURN(std::shared_ptr<cache::FileBlockProvider> provider,
                           spiller.SpillTablePax(t));
  return PublishSpill(t,
                      std::vector<std::shared_ptr<cache::BlockProvider>>(
                          t->schema().num_fields(), provider),
                      reclaim_raw);
}

Status SharedState::PublishSpill(
    const std::shared_ptr<storage::Table>& table,
    const std::vector<std::shared_ptr<cache::BlockProvider>>& providers,
    bool reclaim_raw) {
  // Publish into the bindings of the exact table the spill read, not a
  // fresh catalog lookup: a concurrent re-registration of the name must
  // not get the old table's files read as the new table's.
  DBTOUCH_RETURN_IF_ERROR(buffer_.Publish(table, providers));
  if (!reclaim_raw) {
    return Status::OK();
  }
  // Reclamation: every column reads its spill file now, the matrix is a
  // redundant copy. The table's own paged reads go through pool sources
  // of the same bindings. ReleaseRaw waits out raw readers still in
  // flight (a fill copying from the matrix, a hierarchy or zone-map
  // build); a fill that then finds the matrix gone retries on the spill.
  std::vector<std::shared_ptr<storage::PagedColumnSource>> sources;
  sources.reserve(providers.size());
  for (std::size_t column = 0; column < providers.size(); ++column) {
    DBTOUCH_ASSIGN_OR_RETURN(
        std::shared_ptr<storage::PagedColumnSource> source,
        buffer_.ColumnSource(table, column));
    sources.push_back(std::move(source));
  }
  return table->ReleaseRaw(std::move(sources));
}

std::size_t SharedState::hierarchy_count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return hierarchies_.size();
}

std::size_t SharedState::sample_bytes() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::size_t total = 0;
  for (const auto& [key, entry] : hierarchies_) {
    total += entry.hierarchy->sample_bytes();
  }
  return total;
}

}  // namespace dbtouch::core
