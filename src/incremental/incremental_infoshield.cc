#include "incremental/incremental_infoshield.h"

#include <algorithm>
#include <utility>

#include "coarse/coarse_clustering.h"
#include "mdl/cost_model.h"
#include "tfidf/tfidf_index.h"
#include "util/audit.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace infoshield {

IncrementalInfoShield::IncrementalInfoShield(InfoShieldOptions options)
    : options_(options), index_(options.coarse.tfidf) {
  // result_ starts as the batch pipeline's output over an empty corpus:
  // no documents, no clusters, no templates.
}

// analyzer: hot
Result<IngestStats> IncrementalInfoShield::IngestBatch(
    const std::vector<std::string>& texts) {
  if (options_.coarse.backend != CoarseBackend::kTfidfGraph) {
    return Status::InvalidArgument(
        "incremental ingest supports only the tf-idf coarse backend "
        "(CoarseBackend::kTfidfGraph); options.coarse.backend is "
        "kMinhashLsh");
  }
  IngestStats stats;
  stats.total_docs = corpus_.size();
  stats.generation = generation_;
  if (texts.empty()) return stats;

  const size_t threads = ThreadPool::ResolveNumThreads(options_.num_threads);
  const size_t old_size = corpus_.size();

  Result<DocId> first_id = corpus_.TryAddBatch(texts, threads);
  INFOSHIELD_RETURN_IF_ERROR(first_id.status());
  const size_t new_size = corpus_.size();
  stats.batch_docs = new_size - old_size;
  stats.total_docs = new_size;
  stats.generation = ++generation_;

  // --- df: the new documents' counts, added to the index in place.
  // Additivity makes the table equal a Build over all new_size documents.
  WallTimer timer;
  index_.AddDocuments(corpus_, old_size, new_size, threads);
  stats.df_seconds = timer.ElapsedSeconds();

  // --- rescore every document's top phrases. N changed, so idf moved
  // for every phrase and even untouched documents can reorder their top
  // list.
  timer.Restart();
  CoarseResult components;
  components.doc_top_phrases = SelectTopPhrases(index_, corpus_, threads);
  stats.rescore_seconds = timer.ElapsedSeconds();

  // --- the documents whose top phrases changed since the last ingest
  // (every new document counts as changed): the fine stage reads them
  // (seed pools), so a cluster with such a member is dirty even when its
  // member list did not change.
  timer.Restart();
  std::vector<char> phrases_changed(new_size, 1);
  for (size_t d = 0; d < old_size; ++d) {
    phrases_changed[d] = components.doc_top_phrases[d] != doc_top_phrases_[d];
  }

  // --- graph and components, exactly as the batch coarse stage builds
  // them.
  BuildCoarseComponents(options_.coarse, &components);
  stats.graph_rebuilt = true;
  stats.num_coarse_clusters = components.clusters.size();
  stats.graph_seconds = timer.ElapsedSeconds();

  // --- fine stage over dirty components only.
  timer.Restart();
  const CostModel cost_model = CostModel::ForVocabulary(corpus_.vocab());
  // lg V enters every MDL cost comparison, so a vocabulary-size step
  // can flip accept/reject decisions in ANY cluster: reuse nothing.
  const bool same_lg_vocab = cost_model.lg_vocab() == lg_vocab_;
  stats.vocab_grew = !same_lg_vocab && !fine_.empty();

  // A cluster is clean when the last ingest had the same member list and
  // none of its members' top phrases changed. Both cluster lists come
  // out in smallest-member order, so one merge finds the last ingest's
  // cluster with the same smallest member.
  const size_t num_clusters = components.clusters.size();
  std::vector<FineResult> fine(num_clusters);
  std::vector<size_t> dirty;
  std::vector<std::vector<DocId>> dirty_clusters;
  dirty.reserve(num_clusters);
  dirty_clusters.reserve(num_clusters);
  size_t last = 0;
  for (size_t ci = 0; ci < num_clusters; ++ci) {
    const std::vector<DocId>& members = components.clusters[ci];
    while (last < clusters_.size() &&
           clusters_[last].front() < members.front()) {
      ++last;
    }
    const bool clean =
        same_lg_vocab && last < clusters_.size() &&
        clusters_[last] == members &&
        std::none_of(members.begin(), members.end(),
                     [&](DocId d) { return phrases_changed[d] != 0; });
    if (clean) {
      fine[ci] = std::move(fine_[last]);
      ++stats.reused_clusters;
    } else {
      dirty.push_back(ci);
      dirty_clusters.push_back(members);
      ++stats.dirty_clusters;
      stats.dirty_cluster_docs += members.size();
    }
  }
  std::vector<FineResult> dirty_results =
      FineClustering(options_.fine)
          .RunOnClusters(corpus_, dirty_clusters, cost_model,
                         &components.doc_top_phrases, options_.num_threads);
  for (size_t i = 0; i < dirty.size(); ++i) {
    fine[dirty[i]] = std::move(dirty_results[i]);
  }

  // --- assemble exactly as the batch pipeline does (from a copy: the
  // results are kept for the next ingest), then keep this ingest's state.
  result_ =
      AssembleResult(corpus_.size(), components, fine, cost_model.lg_vocab());
  doc_top_phrases_ = std::move(components.doc_top_phrases);
  clusters_ = std::move(components.clusters);
  fine_ = std::move(fine);
  lg_vocab_ = cost_model.lg_vocab();
  stats.fine_seconds = timer.ElapsedSeconds();
  INFOSHIELD_AUDIT_INVARIANTS(ValidateInvariants());
  return stats;
}

Status IncrementalInfoShield::ValidateInvariants() const {
  INFOSHIELD_RETURN_IF_ERROR(index_.ValidateInvariants());
  audit::Auditor a("IncrementalInfoShield");
  const size_t n = corpus_.size();
  a.Expect(doc_top_phrases_.size() == n,
           StrFormat("doc_top_phrases has %zu entries for %zu documents",
                     doc_top_phrases_.size(), n));
  a.Expect(index_.num_documents() == n,
           StrFormat("df index counts %zu documents but the corpus holds "
                     "%zu",
                     index_.num_documents(), n));
  a.Expect(fine_.size() == clusters_.size(),
           StrFormat("%zu fine results for %zu clusters", fine_.size(),
                     clusters_.size()));
  for (size_t ci = 0; ci < clusters_.size(); ++ci) {
    if (clusters_[ci].empty() ||
        (ci > 0 && clusters_[ci - 1].front() >= clusters_[ci].front())) {
      a.Expect(false, StrFormat("cluster %zu is empty or out of "
                                "smallest-member order",
                                ci));
    }
  }
  INFOSHIELD_RETURN_IF_ERROR(a.Finish());
  // Each kept result against its cluster, under the lg V it was
  // computed for (the last ingest's).
  const CostModel cost_model(lg_vocab_);
  for (size_t ci = 0; ci < clusters_.size(); ++ci) {
    INFOSHIELD_RETURN_IF_ERROR(
        ValidateFineResult(fine_[ci], corpus_, clusters_[ci], &cost_model));
  }
  return ValidateInfoShieldResult(result_, corpus_);
}

}  // namespace infoshield
