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
  const std::lock_guard<std::mutex> lock(mu_);
  return ColumnSourceLocked(t, column);
}

Result<std::shared_ptr<storage::PagedColumnSource>>
SharedState::ColumnSourceLocked(const std::shared_ptr<storage::Table>& table,
                                std::size_t column) {
  const std::string& name = table->name();
  const auto it = providers_.find(ColumnKey{name, column});
  if (it != providers_.end()) {
    if (it->second.table == table) {
      // PAX-spilled tables: every column reads its minipage of the one
      // shared multi-column binding.
      if (it->second.provider->pax_layout() != nullptr) {
        return buffer_.PaxSourceFor(name, column, it->second.provider);
      }
      return buffer_.SourceFor(name, column, it->second.provider);
    }
    // The name was re-registered with different data since the provider
    // was bound: the override is stale — retire it rather than serve
    // remote blocks of the old table under the new table's geometry.
    providers_.erase(it);
  }
  return buffer_.ColumnSource(table, column);
}

Status SharedState::SetColumnProvider(
    const std::string& table, std::size_t column,
    std::shared_ptr<cache::BlockProvider> provider) {
  DBTOUCH_ASSIGN_OR_RETURN(std::shared_ptr<storage::Table> t,
                           catalog_.Get(table));
  return BindColumnProvider(std::move(t), column, std::move(provider));
}

Status SharedState::BindColumnProvider(
    std::shared_ptr<storage::Table> table, std::size_t column,
    std::shared_ptr<cache::BlockProvider> provider) {
  if (provider == nullptr) {
    return Status::InvalidArgument("null provider");
  }
  if (column >= table->schema().num_fields()) {
    return Status::OutOfRange("column " + std::to_string(column) +
                              " out of range for table '" +
                              table->name() + "'");
  }
  if (provider->geometry().row_count != table->row_count()) {
    return Status::InvalidArgument(
        "provider row count " +
        std::to_string(provider->geometry().row_count) +
        " does not match table '" + table->name() + "' (" +
        std::to_string(table->row_count()) + " rows)");
  }
  const std::string name = table->name();
  const std::lock_guard<std::mutex> lock(mu_);
  providers_[ColumnKey{name, column}] =
      ProviderEntry{std::move(table), std::move(provider)};
  return Status::OK();
}

Status SharedState::SpillTable(const std::string& table,
                               storage::TableSpiller& spiller,
                               bool reclaim_raw) {
  DBTOUCH_ASSIGN_OR_RETURN(std::shared_ptr<storage::Table> t,
                           catalog_.Get(table));
  // Write (and validate) every column's file before rebinding any: a
  // spill that fails halfway must not leave the table half on disk.
  std::vector<std::shared_ptr<cache::BlockProvider>> providers;
  providers.reserve(t->schema().num_fields());
  for (std::size_t column = 0; column < t->schema().num_fields();
       ++column) {
    DBTOUCH_ASSIGN_OR_RETURN(std::shared_ptr<cache::FileBlockProvider> p,
                             spiller.SpillColumn(t, column));
    providers.push_back(std::move(p));
  }
  return BindSpill(t, providers, reclaim_raw);
}

Status SharedState::SpillTablePax(const std::string& table,
                                  storage::TableSpiller& spiller,
                                  bool reclaim_raw) {
  DBTOUCH_ASSIGN_OR_RETURN(std::shared_ptr<storage::Table> t,
                           catalog_.Get(table));
  // One file for the whole table, shared by every column's binding.
  DBTOUCH_ASSIGN_OR_RETURN(std::shared_ptr<cache::FileBlockProvider> provider,
                           spiller.SpillTablePax(t));
  return BindSpill(t,
                   std::vector<std::shared_ptr<cache::BlockProvider>>(
                       t->schema().num_fields(), provider),
                   reclaim_raw);
}

Status SharedState::BindSpill(
    const std::shared_ptr<storage::Table>& table,
    const std::vector<std::shared_ptr<cache::BlockProvider>>& providers,
    bool reclaim_raw) {
  for (std::size_t column = 0; column < providers.size(); ++column) {
    // Bind against the exact table the spill read — not a fresh catalog
    // lookup: a concurrent re-registration of the name must not get the
    // old table's spill files pinned under the new table's identity (the
    // identity mismatch then retires the binding, as for any provider).
    DBTOUCH_RETURN_IF_ERROR(
        BindColumnProvider(table, column, providers[column]));
  }
  if (!reclaim_raw) {
    return Status::OK();
  }
  // Reclamation: every file is written, validated and bound — the matrix
  // is now a redundant copy. Resolve the paged rebind sources (the same
  // binding GetColumnSource hands out, so probe pins and point reads
  // share cache keys), then free the raw storage. ReleaseRaw waits out
  // raw readers still in flight, a hierarchy or zone-map build among
  // them; sample hierarchies hold their own copies and need nothing.
  std::vector<std::shared_ptr<storage::PagedColumnSource>> sources;
  sources.reserve(providers.size());
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t column = 0; column < providers.size(); ++column) {
      DBTOUCH_ASSIGN_OR_RETURN(
          std::shared_ptr<storage::PagedColumnSource> source,
          ColumnSourceLocked(table, column));
      sources.push_back(std::move(source));
    }
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
