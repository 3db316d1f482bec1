#include "fd/fd_util.h"

#include <map>
#include <vector>

namespace muds {

std::vector<Fd> ConstantColumnFds(const Relation& relation) {
  std::vector<Fd> fds;
  for (int c = 0; c < relation.NumColumns(); ++c) {
    if (relation.IsConstantColumn(c)) fds.push_back(Fd{ColumnSet(), c});
  }
  return fds;
}

FdWorkCounts::FdWorkCounts(const std::string& algorithm)
    : fd_checks_counter_(
          MetricsRegistry::Global().GetCounter(algorithm + ".fd_checks")),
      pli_intersects_counter_(MetricsRegistry::Global().GetCounter(
          algorithm + ".pli_intersects")) {}

FdWorkCounts::~FdWorkCounts() {
  fd_checks_counter_->Add(checks);
  pli_intersects_counter_->Add(intersects);
}

bool CheckFd(PliCache* cache, const ColumnSet& lhs, int rhs) {
  return cache->Get(lhs)->Refines(cache->relation().GetColumn(rhs));
}

bool CheckFdByDefinition(const Relation& relation, const ColumnSet& lhs,
                         int rhs) {
  // Group rows by their lhs projection and require a constant rhs per group.
  std::map<std::vector<int32_t>, int32_t> rhs_of;
  const std::vector<int> columns = lhs.ToIndices();
  std::vector<int32_t> key(columns.size());
  for (RowId row = 0; row < relation.NumRows(); ++row) {
    for (size_t i = 0; i < columns.size(); ++i) {
      key[i] = relation.Code(row, columns[i]);
    }
    const int32_t value = relation.Code(row, rhs);
    auto [it, inserted] = rhs_of.emplace(key, value);
    if (!inserted && it->second != value) return false;
  }
  return true;
}

}  // namespace muds
