#include "workloads.h"

#include <array>
#include <sstream>
#include <utility>

#include "datagen/neardup_gen.h"
#include "datagen/twitter_gen.h"
#include "eval/metrics.h"
#include "io/csv.h"
#include "io/json_writer.h"
#include "text/corpus.h"

namespace perfbench {

using infoshield::Corpus;
using infoshield::JsonWriter;
using infoshield::Result;
using infoshield::Status;

namespace {

constexpr std::array<Workload, 2> kWorkloads = {{
    {"tweets_batch"},
    {"longdoc_batch"},
}};

struct Row {
  std::string text;
  bool positive = false;
  int64_t label = -1;
};

// A workload's rows, and the generator manifest.json names.
struct Generated {
  std::vector<Row> rows;
  std::string generator;
  std::vector<std::pair<std::string, double>> params;
};

Generated Tweets(uint64_t seed, bool toy) {
  // Half genuine, half bot accounts; ~25 tweets per account pair, so
  // 96k tweets at full scale (the upper range of the paper's Fig. 2 sweep).
  const size_t target = toy ? 1000 : 96000;
  infoshield::TwitterGenOptions o;
  o.num_genuine_accounts = target / 25;
  o.num_bot_accounts = target / 25;
  infoshield::LabeledTweets data =
      infoshield::TwitterGenerator(o).Generate(seed);
  Generated g;
  g.generator = "TwitterGenerator";
  g.params = {{"num_genuine_accounts", double(o.num_genuine_accounts)},
              {"num_bot_accounts", double(o.num_bot_accounts)},
              {"tweets_per_account_min", double(o.tweets_per_bot_min)},
              {"tweets_per_account_max", double(o.tweets_per_bot_max)},
              {"bot_edit_prob", o.bot_edit_prob},
              {"vocab_size", double(o.vocab_size)}};
  for (const infoshield::Document& doc : data.corpus.docs()) {
    g.rows.push_back({doc.raw, data.is_bot[doc.id],
                      data.cluster_label[doc.id]});
  }
  return g;
}

Generated LongDocs(uint64_t seed, bool toy) {
  // A few families of ~4k-token near-duplicates in short noise: the fine
  // stage's (n+1)(m+1) alignment tables dominate time and memory. Family
  // size is fixed so every seed aligns the same number of pairs.
  infoshield::NearDupGenOptions o;
  o.num_families = toy ? 2 : 6;
  o.family_size_min = o.family_size_max = toy ? 3 : 4;
  o.template_tokens = toy ? 300 : 4000;
  o.target_jaccard = 0.85;
  o.num_noise = toy ? 40 : 300;
  infoshield::NearDupCorpus data =
      infoshield::GenerateNearDupFamilies(o, seed);
  Generated g;
  g.generator = "GenerateNearDupFamilies";
  g.params = {{"num_families", double(o.num_families)},
              {"family_size_min", double(o.family_size_min)},
              {"family_size_max", double(o.family_size_max)},
              {"template_tokens", double(o.template_tokens)},
              {"target_jaccard", o.target_jaccard},
              {"shingle_k", double(o.shingle_k)},
              {"num_noise", double(o.num_noise)},
              {"noise_tokens_min", double(o.noise_tokens_min)},
              {"noise_tokens_max", double(o.noise_tokens_max)},
              {"vocab_size", double(o.vocab_size)}};
  for (const infoshield::Document& doc : data.corpus.docs()) {
    const int64_t family = data.family[doc.id];
    g.rows.push_back({doc.raw, family >= 0, family});
  }
  return g;
}

Status WriteManifest(const Workload& workload, uint64_t seed, bool toy,
                     const Generated& g, const std::string& dir) {
  std::vector<std::string> texts;
  size_t positives = 0;
  for (const Row& row : g.rows) {
    texts.push_back(row.text);
    if (row.positive) ++positives;
  }
  Corpus corpus;
  corpus.AddBatch(texts, /*num_threads=*/0);
  size_t tokens = 0;
  for (const infoshield::Document& doc : corpus.docs()) tokens += doc.length();

  JsonWriter w;
  w.BeginObject();
  w.Key("workload").String(workload.name);
  w.Key("seed").Int(static_cast<int64_t>(seed));
  w.Key("scale").String(toy ? "toy" : "full");
  w.Key("generator").String(g.generator);
  w.Key("params").BeginObject();
  for (const auto& [key, value] : g.params) w.Key(key).Double(value);
  w.EndObject();
  w.Key("docs").Int(static_cast<int64_t>(texts.size()));
  w.Key("tokens").Int(static_cast<int64_t>(tokens));
  w.Key("vocab").Int(static_cast<int64_t>(corpus.vocab().size()));
  w.Key("positive_docs").Int(static_cast<int64_t>(positives));
  w.EndObject();
  return infoshield::WriteJsonFile(dir + "/manifest.json", w.str() + "\n");
}

}  // namespace

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::string DocsCsvPath(const std::string& dir) { return dir + "/docs.csv"; }

Status GenerateInputs(const Workload& workload, uint64_t seed, bool toy,
                      const std::string& dir) {
  const Generated g = workload.name == "tweets_batch" ? Tweets(seed, toy)
                                                     : LongDocs(seed, toy);
  infoshield::CsvTable table;
  table.header = {"text", "positive", "label"};
  for (const Row& row : g.rows) {
    table.rows.push_back({row.text, row.positive ? "1" : "0",
                          std::to_string(row.label)});
  }
  INFOSHIELD_RETURN_IF_ERROR(
      infoshield::WriteCsvFile(DocsCsvPath(dir), table));
  return WriteManifest(workload, seed, toy, g, dir);
}

infoshield::InfoShieldOptions PipelineOptions(size_t threads) {
  infoshield::InfoShieldOptions options;
  options.num_threads = threads;
  return options;
}

Result<Inputs> ReadInputs(const std::string& dir) {
  Result<infoshield::CsvTable> table = infoshield::ReadCsvFile(DocsCsvPath(dir));
  if (!table.ok()) return table.status();
  const int text = table->ColumnIndex("text");
  const int positive = table->ColumnIndex("positive");
  const int label = table->ColumnIndex("label");
  if (text < 0 || positive < 0 || label < 0) {
    return Status::InvalidArgument(DocsCsvPath(dir) +
                                   ": expected columns text,positive,label");
  }
  Inputs in;
  for (const std::vector<std::string>& row : table->rows) {
    if (row.size() != table->header.size()) {
      return Status::InvalidArgument(DocsCsvPath(dir) + ": short row");
    }
    in.texts.push_back(row[static_cast<size_t>(text)]);
    in.positive.push_back(row[static_cast<size_t>(positive)] == "1");
    in.label.push_back(std::stoll(row[static_cast<size_t>(label)]));
  }
  return in;
}

Quality Score(const infoshield::InfoShieldResult& result,
              const Inputs& inputs) {
  std::vector<bool> predicted;
  predicted.reserve(result.doc_template.size());
  for (int64_t t : result.doc_template) predicted.push_back(t >= 0);
  const infoshield::BinaryMetrics binary =
      infoshield::ComputeBinaryMetrics(predicted, inputs.positive);
  return {binary.precision(), binary.recall(),
          infoshield::AdjustedRandIndex(inputs.label, result.doc_template)};
}

std::string Digest(std::string_view json) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : json) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  std::ostringstream out;
  out << std::hex;
  out.width(16);
  out.fill('0');
  out << h;
  return out.str();
}

}  // namespace perfbench
