#include "graph/union_find.h"

#include <numeric>

#include "util/audit.h"
#include "util/logging.h"
#include "util/status.h"
#include "util/string_util.h"

namespace infoshield {

UnionFind::UnionFind(size_t n)
    : parent_(n), size_(n, 1), num_sets_(n) {
  std::iota(parent_.begin(), parent_.end(), 0u);
}

uint32_t UnionFind::Find(uint32_t x) {
  CHECK_LT(x, parent_.size());
  while (parent_[x] != x) {
    // A corrupt (out-of-range) parent entry would make the halving read
    // walk off the array as silent UB; fail loudly instead. The grandparent
    // is then in range too: chains only shorten under halving.
    CHECK_LT(parent_[x], parent_.size());
    parent_[x] = parent_[parent_[x]];  // path halving
    x = parent_[x];
  }
  return x;
}

bool UnionFind::Union(uint32_t a, uint32_t b) {
  uint32_t ra = Find(a);
  uint32_t rb = Find(b);
  if (ra == rb) return false;
  if (size_[ra] < size_[rb]) std::swap(ra, rb);
  parent_[rb] = ra;
  size_[ra] += size_[rb];
  --num_sets_;
  return true;
}

uint32_t UnionFind::SetSize(uint32_t x) { return size_[Find(x)]; }

Status UnionFind::ValidateInvariants() const {
  audit::Auditor a("UnionFind");
  const size_t n = parent_.size();
  a.Expect(size_.size() == n,
           StrFormat("size_ has %zu entries for %zu elements", size_.size(),
                     n));

  // Resolve every element's root without path compression, marking nodes
  // done as chains terminate so the whole pass is O(n) and a cycle can
  // never loop forever: a parent chain that walks more than n steps
  // without reaching a root must repeat a node.
  std::vector<uint32_t> root(n, 0);
  std::vector<uint8_t> done(n, 0);
  bool structure_ok = true;
  for (uint32_t i = 0; i < n && structure_ok; ++i) {
    if (done[i]) continue;
    std::vector<uint32_t> chain;
    uint32_t x = i;
    while (true) {
      if (!a.Expect(x < n, StrFormat("parent chain of %u leaves range at %u",
                                     i, x))) {
        structure_ok = false;
        break;
      }
      if (done[x]) break;
      if (parent_[x] == x) {
        root[x] = x;
        done[x] = 1;
        break;
      }
      chain.push_back(x);
      x = parent_[x];
      if (!a.Expect(chain.size() <= n,
                    StrFormat("parent chain of %u cycles (no root within "
                              "%zu steps)",
                              i, n))) {
        structure_ok = false;
        break;
      }
    }
    if (!structure_ok) break;
    const uint32_t r = root[x];
    for (uint32_t y : chain) {
      root[y] = r;
      done[y] = 1;
    }
  }
  if (!structure_ok) return a.Finish();

  // Per-root member counts against the stored sizes; roots against
  // num_sets_.
  std::vector<uint32_t> count(n, 0);
  size_t num_roots = 0;
  for (uint32_t i = 0; i < n; ++i) {
    ++count[root[i]];
    if (parent_[i] == i) ++num_roots;
  }
  a.Expect(num_roots == num_sets_,
           StrFormat("num_sets_=%zu but the forest has %zu roots", num_sets_,
                     num_roots));
  if (size_.size() == n) {
    for (uint32_t i = 0; i < n; ++i) {
      if (parent_[i] != i) continue;
      a.Expect(size_[i] == count[i],
               StrFormat("root %u stores size %u but has %u members", i,
                         size_[i], count[i]));
    }
  }
  return a.Finish();
}

}  // namespace infoshield
