#include "incremental/incremental_infoshield.h"

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

IncrementalInfoShield::IncrementalInfoShield(
    InfoShieldOptions options, TokenizerOptions tokenizer_options)
    : options_(options),
      corpus_(tokenizer_options),
      index_(options.coarse.tfidf) {
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

  // --- stamp the old documents whose top phrases changed: the fine
  // stage reads them (seed pools), so a cluster with such a member is
  // dirty even when its member list did not change.
  timer.Restart();
  doc_changed_gen_.resize(new_size, generation_);
  for (size_t d = 0; d < old_size; ++d) {
    if (components.doc_top_phrases[d] != doc_top_phrases_[d]) {
      doc_changed_gen_[d] = generation_;
    }
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
  if (cost_model.lg_vocab() != last_lg_vocab_) {
    // lg V enters every MDL cost comparison, so a vocabulary-size step
    // can flip accept/reject decisions in ANY cluster: drop everything.
    stats.vocab_grew = !fine_cache_.empty();
    fine_cache_.clear();
    last_lg_vocab_ = cost_model.lg_vocab();
  }

  const size_t num_clusters = components.clusters.size();
  std::vector<FineResult> fine_results(num_clusters);
  std::vector<uint64_t> result_generation(num_clusters, generation_);
  std::vector<size_t> dirty;
  dirty.reserve(num_clusters);
  for (size_t ci = 0; ci < num_clusters; ++ci) {
    const std::vector<DocId>& members = components.clusters[ci];
    auto it = fine_cache_.find(members.front());
    bool reusable = it != fine_cache_.end() && it->second.members == members;
    if (reusable) {
      for (DocId d : members) {
        if (doc_changed_gen_[d] > it->second.generation) {
          reusable = false;
          break;
        }
      }
    }
    if (reusable) {
      fine_results[ci] = it->second.result;
      result_generation[ci] = it->second.generation;
      ++stats.reused_clusters;
    } else {
      dirty.push_back(ci);
      ++stats.dirty_clusters;
      stats.dirty_cluster_docs += members.size();
    }
  }
  std::vector<std::vector<DocId>> dirty_clusters;
  dirty_clusters.reserve(dirty.size());
  for (size_t ci : dirty) dirty_clusters.push_back(components.clusters[ci]);
  std::vector<FineResult> dirty_results =
      FineClustering(options_.fine)
          .RunOnClusters(corpus_, dirty_clusters, cost_model,
                         &components.doc_top_phrases, options_.num_threads);
  for (size_t i = 0; i < dirty.size(); ++i) {
    fine_results[dirty[i]] = std::move(dirty_results[i]);
  }

  // Refresh the cache: every current cluster is stored with the
  // generation its result was computed at (carried over for reused
  // entries so the dirtiness predicate keeps working); vanished
  // clusters drop out.
  fine_cache_.clear();
  fine_cache_.reserve(num_clusters);
  for (size_t ci = 0; ci < num_clusters; ++ci) {
    CachedFine entry;
    entry.members = components.clusters[ci];
    entry.result = fine_results[ci];
    entry.generation = result_generation[ci];
    fine_cache_.emplace(entry.members.front(), std::move(entry));
  }

  // --- assemble exactly as the batch pipeline does.
  result_ = AssembleResult(corpus_.size(), components, std::move(fine_results),
                           cost_model.lg_vocab());
  doc_top_phrases_ = std::move(components.doc_top_phrases);
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
  a.Expect(doc_changed_gen_.size() == n,
           StrFormat("doc_changed_gen has %zu entries for %zu documents",
                     doc_changed_gen_.size(), n));
  a.Expect(index_.num_documents() == n,
           StrFormat("df index counts %zu documents but the corpus holds "
                     "%zu",
                     index_.num_documents(), n));
  for (size_t d = 0; d < doc_changed_gen_.size(); ++d) {
    if (doc_changed_gen_[d] > generation_) {
      a.Expect(false,
               StrFormat("document %zu changed at generation %llu, beyond "
                         "the engine's %llu",
                         d,
                         static_cast<unsigned long long>(doc_changed_gen_[d]),
                         static_cast<unsigned long long>(generation_)));
    }
  }
  // determinism: validation only; each entry is checked independently.
  for (const auto& [key, entry] : fine_cache_) {
    a.Expect(!entry.members.empty() && entry.members.front() == key,
             StrFormat("cache entry %u does not start with its key", key));
    for (DocId d : entry.members) {
      if (d >= n) {
        a.Expect(false,
                 StrFormat("cache entry %u holds out-of-corpus member %u",
                           key, d));
      }
    }
    a.Expect(entry.generation <= generation_,
             StrFormat("cache entry %u computed at generation %llu, beyond "
                       "the engine's %llu",
                       key,
                       static_cast<unsigned long long>(entry.generation),
                       static_cast<unsigned long long>(generation_)));
  }
  INFOSHIELD_RETURN_IF_ERROR(a.Finish());
  return ValidateInfoShieldResult(result_, corpus_);
}

}  // namespace infoshield
