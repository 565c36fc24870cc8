// Disjoint-set (union-find) with path halving and union by size.
// Backbone of the coarse stage's connected-component computation.
//
// Every entry point bounds-checks its argument, and Find additionally
// validates each parent-chain hop — a corrupt in-range entry would
// otherwise walk off the array silently.

#ifndef INFOSHIELD_GRAPH_UNION_FIND_H_
#define INFOSHIELD_GRAPH_UNION_FIND_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/status.h"

namespace infoshield {

class UnionFind {
 public:
  explicit UnionFind(size_t n);

  // Representative of x's set. Pre-condition: x < num_elements(). Checked.
  uint32_t Find(uint32_t x);

  // Merges the sets of a and b; returns true if they were distinct.
  bool Union(uint32_t a, uint32_t b);

  bool Connected(uint32_t a, uint32_t b) { return Find(a) == Find(b); }

  // Size of the set containing x.
  uint32_t SetSize(uint32_t x);

  size_t num_elements() const { return parent_.size(); }
  size_t num_sets() const { return num_sets_; }

  // Deep invariant audit (util/audit.h): the parent array is an acyclic
  // forest with in-range entries, every root's stored size equals its
  // actual member count (sizes sum to n), and num_sets matches the root
  // count. Returns OK or an Internal status listing every violation.
  // Does not mutate the structure (no path compression).
  Status ValidateInvariants() const;

 private:
  friend class UnionFindTestPeer;

  std::vector<uint32_t> parent_;
  std::vector<uint32_t> size_;
  size_t num_sets_;
};

}  // namespace infoshield

#endif  // INFOSHIELD_GRAPH_UNION_FIND_H_
