#include "core/visualize.h"

#include <gtest/gtest.h>

#include "core/infoshield.h"

namespace infoshield {
namespace {

struct RunResult {
  Corpus corpus;
  InfoShieldResult result;
};

// Enlarges the vocabulary so MDL favors templates (see fine tests).
void PadVocabulary(Corpus& c, size_t num_words) {
  std::string text;
  for (size_t i = 0; i < num_words; ++i) {
    text += "pad" + std::to_string(i) + " ";
    if (text.size() > 200) {
      c.Add(text);
      text.clear();
    }
  }
  if (!text.empty()) c.Add(text);
}

RunResult SlotRun() {
  RunResult rr;
  rr.corpus.Add("this is a great soap and the 5 dollar price is great");
  rr.corpus.Add("this is a great chair and the 10 dollar price is great");
  rr.corpus.Add("this is a great hat and the 3 dollar price is great");
  rr.corpus.Add("this is a great lamp and the 8 dollar price is great");
  PadVocabulary(rr.corpus, 300);
  InfoShield shield;
  rr.result = shield.Run(rr.corpus);
  return rr;
}

TEST(VisualizeTest, AnsiContainsTemplateAndDocs) {
  RunResult rr = SlotRun();
  ASSERT_EQ(rr.result.templates.size(), 1u);
  std::string out = RenderTemplateAnsi(rr.result.templates[0], rr.corpus);
  EXPECT_NE(out.find("Template (4 docs)"), std::string::npos);
  EXPECT_NE(out.find("this is a great"), std::string::npos);
  EXPECT_NE(out.find("soap"), std::string::npos);
  EXPECT_NE(out.find("chair"), std::string::npos);
  // Slots render as red '*' in the template line.
  EXPECT_NE(out.find("\x1b[31m*"), std::string::npos);
}

TEST(VisualizeTest, AnsiColorsCanBeDisabled) {
  RunResult rr = SlotRun();
  VisualizeOptions opts;
  opts.use_color = false;
  std::string out =
      RenderTemplateAnsi(rr.result.templates[0], rr.corpus, opts);
  EXPECT_EQ(out.find("\x1b["), std::string::npos);
}

TEST(VisualizeTest, MaxDocsTruncates) {
  RunResult rr = SlotRun();
  VisualizeOptions opts;
  opts.max_docs = 2;
  std::string out =
      RenderTemplateAnsi(rr.result.templates[0], rr.corpus, opts);
  EXPECT_NE(out.find("... 2 more"), std::string::npos);
}

TEST(VisualizeTest, HtmlEscapesAndStructures) {
  RunResult rr = SlotRun();
  std::string html = RenderTemplateHtml(rr.result.templates[0], rr.corpus);
  EXPECT_NE(html.find("<div class=\"infoshield-cluster\">"),
            std::string::npos);
  EXPECT_NE(html.find("<span class=\"slot\">"), std::string::npos);
  EXPECT_NE(html.find("</div>"), std::string::npos);
}

TEST(VisualizeTest, HtmlEscapesSpecialCharacters) {
  // The tokenizer splits on punctuation except inside a URL, so the URL
  // token "http://x.example/?a=<b>&c" carries "<", ">" and "&" into the
  // template and every member.
  Corpus c;
  c.Add("price http://x.example/?a=<b>&c 100 rising now today yes");
  c.Add("price http://x.example/?a=<b>&c 100 rising now today yes");
  c.Add("price http://x.example/?a=<b>&c 100 rising now today yes");
  PadVocabulary(c, 300);
  InfoShield shield;
  InfoShieldResult r = shield.Run(c);
  ASSERT_GE(r.templates.size(), 1u);
  std::string html = RenderTemplateHtml(r.templates[0], c);
  // The token's "<b>" and "&" must be escaped (the renderer's own
  // structural tags like <b>Template</b> are legitimate markup).
  EXPECT_NE(html.find("http://x.example/?a=&lt;b&gt;&amp;c"),
            std::string::npos);
  // No raw document token may leak inside the member list.
  size_t list_start = html.find("<ul>");
  ASSERT_NE(list_start, std::string::npos);
  EXPECT_EQ(html.find("<b>", list_start), std::string::npos);
}

TEST(VisualizeTest, FullReportWrapsAllTemplates) {
  RunResult rr = SlotRun();
  std::string report = RenderReportHtml(rr.result.templates, rr.corpus);
  EXPECT_NE(report.find("<!DOCTYPE html>"), std::string::npos);
  EXPECT_NE(report.find("1 micro-clusters"), std::string::npos);
  EXPECT_NE(report.find("</html>"), std::string::npos);
}

TEST(VisualizeTest, InsertionsAndDeletionsMarked) {
  // Six identical docs plus one variant: the variant's extra word stays
  // an unmatched insertion (a slot would cost an empty-slot bit on every
  // other member, so MDL rejects it) and its missing word a deletion.
  // Drives FineClustering directly — this tests rendering, not the
  // coarse stage's phrase selection.
  Corpus c;
  std::vector<DocId> cluster;
  for (int i = 0; i < 6; ++i) {
    cluster.push_back(
        c.Add("grand opening best massage in town call today"));
  }
  cluster.push_back(c.Add("grand opening the best massage in town call"));
  PadVocabulary(c, 300);
  FineClustering fine;
  CostModel cm = CostModel::ForVocabulary(c.vocab());
  FineResult r = fine.RunOnCluster(c, cluster, cm);
  ASSERT_GE(r.templates.size(), 1u);
  EXPECT_EQ(r.templates[0].members.size(), 7u);
  VisualizeOptions opts;
  opts.use_color = false;
  std::string out = RenderTemplateAnsi(r.templates[0], c, opts);
  // The variant inserts "the" (marked +the) and misses "today" (marked
  // [-today]).
  EXPECT_NE(out.find("[-today]"), std::string::npos);
  EXPECT_NE(out.find("+the"), std::string::npos);
}

}  // namespace
}  // namespace infoshield
