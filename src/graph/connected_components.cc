#include "graph/connected_components.h"

#include <cstdint>
#include <vector>

#include "util/audit.h"

namespace infoshield {

Components ExtractComponents(UnionFind& uf, size_t min_component_size) {
  INFOSHIELD_AUDIT_INVARIANTS(uf.ValidateInvariants());
  // A counting sort of the elements by root. The union-find already
  // knows each set's size, so a component's first (smallest) member opens
  // its group at its exact size and later members append in id order:
  // groups come out ordered by smallest member, members ascending.
  constexpr uint32_t kDropped = UINT32_MAX;
  // Per root: 0 until its first member is met, kDropped below
  // min_component_size, else 1 + the index of its group.
  const size_t n = uf.num_elements();
  std::vector<uint32_t> group_of_root(n, 0);
  Components out;
  for (uint32_t i = 0; i < n; ++i) {
    const uint32_t root = uf.Find(i);
    uint32_t& group = group_of_root[root];
    if (group == 0) {
      const uint32_t size = uf.SetSize(root);
      if (size < min_component_size) {
        group = kDropped;
      } else {
        out.groups.emplace_back().reserve(size);
        group = static_cast<uint32_t>(out.groups.size());
      }
    }
    if (group != kDropped) out.groups[group - 1].push_back(i);
  }
  return out;
}

}  // namespace infoshield
