#include "incremental/incremental_infoshield.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "mdl/cost_model.h"
#include "text/ngram.h"
#include "tfidf/df_count.h"
#include "tfidf/tfidf_index.h"
#include "util/audit.h"
#include "util/logging.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace infoshield {

IncrementalInfoShield::IncrementalInfoShield(
    InfoShieldOptions options, TokenizerOptions tokenizer_options)
    : options_(options),
      corpus_(tokenizer_options),
      uf_(0),
      edges_(options.coarse.max_phrase_degree, &uf_) {
  // result_ starts as the batch pipeline's output over an empty corpus:
  // no documents, no clusters, no templates.
}

void IncrementalInfoShield::RebuildGraph() {
  uf_ = UnionFind(corpus_.size());
  edges_.Reset(&uf_);
  // Canonical (document, phrase-rank) replay — the exact edge sequence
  // the batch coarse stage consumes, so the degree cap drops the same
  // edges and the components come out byte-equal.
  for (DocId d = 0; d < corpus_.size(); ++d) {
    for (PhraseHash phrase : doc_top_phrases_[d]) {
      edges_.Add(d, phrase);
    }
  }
}

// analyzer: hot
Result<IngestStats> IncrementalInfoShield::IngestBatch(
    const std::vector<std::string>& texts) {
  IngestStats stats;
  stats.total_docs = corpus_.size();
  stats.generation = df_table_.generation();
  if (texts.empty()) return stats;

  const size_t threads = ThreadPool::ResolveNumThreads(options_.num_threads);
  const size_t old_size = corpus_.size();

  Result<DocId> first_id = corpus_.TryAddBatch(texts, threads);
  INFOSHIELD_RETURN_IF_ERROR(first_id.status());
  const size_t new_size = corpus_.size();
  stats.batch_docs = new_size - old_size;
  stats.total_docs = new_size;

  // --- df delta: the new documents' counts, from the same partitioned
  // count the batch index runs, folded into the snapshot table.
  // Additivity makes the folded table equal a from-scratch build over all
  // new_size documents.
  WallTimer timer;
  DfCounts delta = CountDocumentFrequencies(
      corpus_, old_size, new_size, options_.coarse.tfidf.max_ngram, threads);
  df_table_.ApplyBatch(&delta, new_size - old_size, threads);
  const uint64_t generation = df_table_.generation();
  stats.generation = generation;
  stats.df_seconds = timer.ElapsedSeconds();

  // --- rescore every document's top phrases against the new snapshot.
  // N changed, so idf moved for every phrase and even untouched
  // documents can reorder their top list; scoring is pure and per-
  // document, so it fans out, and the diff below confines the expensive
  // consequences (graph/fine work) to documents that actually changed.
  timer.Restart();
  TfidfIndex index;
  index.BuildFromSnapshot(df_table_.Snapshot(), options_.coarse.tfidf);
  std::vector<std::vector<PhraseHash>> new_top(new_size);
  const size_t num_chunks = std::min(new_size, threads * 4);
  ThreadPool::ParallelFor(threads, num_chunks, [&](size_t chunk) {
    const size_t begin = chunk * new_size / num_chunks;
    const size_t end = (chunk + 1) * new_size / num_chunks;
    for (size_t d = begin; d < end; ++d) {
      // analyzer: allow(hot-loop-alloc) -- TopPhrases returns its scored
      // list by value (one move per document, the API contract).
      const std::vector<ScoredPhrase> scored =
          index.TopPhrases(corpus_.docs()[d]);
      std::vector<PhraseHash>& top = new_top[d];
      top.reserve(scored.size());
      for (const ScoredPhrase& phrase : scored) {
        top.push_back(phrase.hash);
      }
    }
  });
  stats.rescore_seconds = timer.ElapsedSeconds();

  // --- diff against the previous generation's top phrases.
  timer.Restart();
  bool any_old_changed = false;
  bool any_phrase_lost = false;
  std::vector<uint8_t> changed(new_size, 0);
  std::unordered_set<PhraseHash> phrase_set;
  for (size_t d = 0; d < old_size; ++d) {
    if (new_top[d] == doc_top_phrases_[d]) continue;
    changed[d] = 1;
    ++stats.changed_docs;
    any_old_changed = true;
    if (!any_phrase_lost) {
      phrase_set.clear();
      // analyzer: allow(hot-loop-alloc) -- hoisted set, cleared and
      // reused per changed document; rehashes amortize.
      phrase_set.insert(new_top[d].begin(), new_top[d].end());
      for (PhraseHash phrase : doc_top_phrases_[d]) {
        if (phrase_set.find(phrase) == phrase_set.end()) {
          any_phrase_lost = true;
          break;
        }
      }
    }
  }
  for (size_t d = old_size; d < new_size; ++d) {
    changed[d] = 1;
    ++stats.changed_docs;
  }

  // --- graph. Union–find can only merge, so the in-place fast path is
  // valid only when every change is additive: a lost phrase means a lost
  // edge, and under a degree cap ANY old-document change perturbs the
  // canonical replay order the cap's edge drops depend on. Both replays
  // produce the same components as the batch stage — the fast path by
  // anchor-invariance (components are the transitive closure of "shares
  // a top phrase", regardless of which member anchors a phrase), the
  // rebuild by literal re-execution.
  const bool must_rebuild =
      any_phrase_lost ||
      (options_.coarse.max_phrase_degree > 0 && any_old_changed);
  const std::vector<std::vector<PhraseHash>> old_top =
      std::move(doc_top_phrases_);
  doc_top_phrases_ = std::move(new_top);
  doc_changed_gen_.resize(new_size, generation);
  for (size_t d = 0; d < old_size; ++d) {
    if (changed[d]) doc_changed_gen_[d] = generation;
  }
  if (must_rebuild) {
    stats.graph_rebuilt = true;
    RebuildGraph();
  } else {
    uf_.Reserve(new_size);
    for (size_t d = old_size; d < new_size; ++d) {
      const uint32_t id = uf_.AddElement();
      CHECK_EQ(static_cast<size_t>(id), d);
    }
    for (size_t d = 0; d < new_size; ++d) {
      if (!changed[d]) continue;
      if (d < old_size) {
        // Gain-only change (a loss would have forced the rebuild): feed
        // just the added edges.
        phrase_set.clear();
        // analyzer: allow(hot-loop-alloc) -- hoisted set, cleared and
        // reused per changed document; rehashes amortize.
        phrase_set.insert(old_top[d].begin(), old_top[d].end());
        for (PhraseHash phrase : doc_top_phrases_[d]) {
          if (phrase_set.find(phrase) == phrase_set.end()) {
            edges_.Add(static_cast<DocId>(d), phrase);
          }
        }
      } else {
        for (PhraseHash phrase : doc_top_phrases_[d]) {
          edges_.Add(static_cast<DocId>(d), phrase);
        }
      }
    }
  }

  // --- components, exactly as the batch coarse stage emits them.
  CoarseResult components;
  EmitCoarseComponents(uf_, options_.coarse, &components);
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
  std::vector<uint64_t> result_generation(num_clusters, generation);
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
  FineClustering fine(options_.fine);
  ThreadPool::ParallelFor(
      options_.num_threads, dirty.size(), [&](size_t i) {
        const size_t ci = dirty[i];
        fine_results[ci] =
            fine.RunOnCluster(corpus_, components.clusters[ci], cost_model,
                              &doc_top_phrases_);
      });

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

  // --- assemble, replicating InfoShield::Run's merge loop so the
  // result is field-for-field what the batch pipeline would build.
  InfoShieldResult result;
  result.doc_template.assign(corpus_.size(), -1);
  result.num_coarse_clusters = components.clusters.size();
  result.num_singletons = components.singletons.size();
  result.cluster_stats.reserve(num_clusters);
  size_t total_templates = 0;
  for (const FineResult& fr : fine_results) {
    total_templates += fr.templates.size();
  }
  result.templates.reserve(total_templates);
  result.template_coarse_cluster.reserve(total_templates);
  for (size_t ci = 0; ci < num_clusters; ++ci) {
    FineResult& fr = fine_results[ci];
    result.fine_stats.MergeFrom(fr.stats);

    ClusterStats cluster_stats;
    cluster_stats.coarse_cluster_index = ci;
    cluster_stats.num_docs = components.clusters[ci].size();
    cluster_stats.num_templates = fr.templates.size();
    cluster_stats.cost_before = fr.cost_before;
    cluster_stats.cost_after = fr.cost_after;
    cluster_stats.relative_length = fr.relative_length();
    cluster_stats.lower_bound = RelativeLengthLowerBound(
        std::max<size_t>(fr.templates.size(), 1), cluster_stats.num_docs,
        cost_model.lg_vocab());
    result.cluster_stats.push_back(cluster_stats);

    for (TemplateCluster& tc : fr.templates) {
      const int64_t template_index =
          static_cast<int64_t>(result.templates.size());
      for (DocId d : tc.members) {
        result.doc_template[d] = template_index;
      }
      result.templates.push_back(std::move(tc));
      result.template_coarse_cluster.push_back(ci);
    }
  }
  stats.fine_seconds = timer.ElapsedSeconds();
  result_ = std::move(result);
  INFOSHIELD_AUDIT_INVARIANTS(ValidateInvariants());
  return stats;
}

Status IncrementalInfoShield::ValidateInvariants() const {
  INFOSHIELD_RETURN_IF_ERROR(df_table_.ValidateInvariants());
  INFOSHIELD_RETURN_IF_ERROR(uf_.ValidateInvariants());
  audit::Auditor a("IncrementalInfoShield");
  const size_t n = corpus_.size();
  a.Expect(doc_top_phrases_.size() == n,
           StrFormat("doc_top_phrases has %zu entries for %zu documents",
                     doc_top_phrases_.size(), n));
  a.Expect(doc_changed_gen_.size() == n,
           StrFormat("doc_changed_gen has %zu entries for %zu documents",
                     doc_changed_gen_.size(), n));
  a.Expect(uf_.num_elements() == n,
           StrFormat("union-find covers %zu elements for %zu documents",
                     uf_.num_elements(), n));
  a.Expect(df_table_.num_documents() == n,
           StrFormat("df table counts %zu documents but the corpus holds "
                     "%zu",
                     df_table_.num_documents(), n));
  const uint64_t generation = df_table_.generation();
  for (size_t d = 0; d < doc_changed_gen_.size(); ++d) {
    if (doc_changed_gen_[d] > generation) {
      a.Expect(false,
               StrFormat("document %zu changed at generation %llu, beyond "
                         "the table's %llu",
                         d,
                         static_cast<unsigned long long>(doc_changed_gen_[d]),
                         static_cast<unsigned long long>(generation)));
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
    a.Expect(entry.generation <= generation,
             StrFormat("cache entry %u computed at generation %llu, beyond "
                       "the table's %llu",
                       key,
                       static_cast<unsigned long long>(entry.generation),
                       static_cast<unsigned long long>(generation)));
  }
  INFOSHIELD_RETURN_IF_ERROR(a.Finish());
  return ValidateInfoShieldResult(result_, corpus_);
}

}  // namespace infoshield
