// Unit tests for the nsm_analyze lexer and extractor (tools/nsm_analyze).
// The fixture ctests (tools/lint_fixtures/) cover each check end to end;
// these tests pin what a fixture cannot isolate: exact token streams for
// the lexer edge cases, the extractor's event/scope model, and the exact
// per-rule counts of the seeded fixtures.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "lexer.hpp"
#include "model.hpp"

namespace {

using nsm_analyze::Event;
using nsm_analyze::EventKind;
using nsm_analyze::FileModel;
using nsm_analyze::Lex;
using nsm_analyze::Token;
using nsm_analyze::TokenKind;

std::vector<std::string> TextsOf(const std::vector<Token>& tokens) {
  std::vector<std::string> out;
  for (const Token& t : tokens) out.push_back(t.text);
  return out;
}

// ---- lexer -----------------------------------------------------------------

TEST(LexerTest, RawStringBodyIsOneOpaqueToken) {
  const auto tokens = Lex(R"src(auto s = R"json({ "k": "}v{" })json";)src");
  ASSERT_EQ(tokens.size(), 5u);  // auto s = <string> ;
  EXPECT_EQ(tokens[3].kind, TokenKind::kString);
  EXPECT_EQ(tokens[3].text, R"({ "k": "}v{" })");
  EXPECT_EQ(tokens[4].text, ";");
}

TEST(LexerTest, RawStringCustomDelimiterSurvivesEmbeddedCloser) {
  const auto tokens = Lex("auto s = R\"del(ends with )\" here)del\";");
  ASSERT_EQ(tokens.size(), 5u);
  EXPECT_EQ(tokens[3].text, "ends with )\" here");
}

TEST(LexerTest, RawStringEncodingPrefixes) {
  for (const char* prefix : {"u8", "L", "u", "U"}) {
    const std::string src = std::string(prefix) + "R\"(body)\";";
    const auto tokens = Lex(src);
    ASSERT_EQ(tokens.size(), 2u) << prefix;
    EXPECT_EQ(tokens[0].kind, TokenKind::kString) << prefix;
    EXPECT_EQ(tokens[0].text, "body") << prefix;
  }
}

TEST(LexerTest, LineContinuationMacroContributesNoTokens) {
  const auto tokens = Lex(
      "#define RECORD(m)            \\\n"
      "  (m)->Observe(\"x.y\", 1.0); \\\n"
      "  (void)0\n"
      "int after;");
  EXPECT_EQ(TextsOf(tokens), (std::vector<std::string>{"int", "after", ";"}));
  EXPECT_EQ(tokens[0].line, 4);  // continuation lines were counted
}

TEST(LexerTest, BlockCommentsDoNotNest) {
  const auto tokens = Lex("/* outer /* inner */ int x; /* tail */");
  EXPECT_EQ(TextsOf(tokens), (std::vector<std::string>{"int", "x", ";"}));
}

TEST(LexerTest, LineCommentWithContinuationSwallowsNextLine) {
  const auto tokens = Lex("// comment continues \\\nint hidden;\nint seen;");
  EXPECT_EQ(TextsOf(tokens), (std::vector<std::string>{"int", "seen", ";"}));
  EXPECT_EQ(tokens[0].line, 3);
}

TEST(LexerTest, StringEscapesAndCharLiterals) {
  const auto tokens = Lex(R"(f("a\"b", '\'', "{"))");
  ASSERT_EQ(tokens.size(), 8u);  // f ( "a\"b" , '\'' , "{" )
  EXPECT_EQ(tokens[2].kind, TokenKind::kString);
  EXPECT_EQ(tokens[2].text, "a\\\"b");
  EXPECT_EQ(tokens[4].kind, TokenKind::kChar);
  EXPECT_EQ(tokens[6].text, "{");  // a brace inside a literal is not a scope
}

TEST(LexerTest, MultiCharPunctuatorsAreUnits) {
  const auto tokens = Lex("a->b::c");
  EXPECT_EQ(TextsOf(tokens),
            (std::vector<std::string>{"a", "->", "b", "::", "c"}));
}

TEST(LexerTest, LineNumbersSpanMultilineTokens) {
  const auto tokens = Lex("R\"(one\ntwo)\"\nint x;");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0].line, 1);
  EXPECT_EQ(tokens[1].line, 3);  // `int` after the two-line raw string
}

TEST(LexerTest, UnterminatedLiteralStopsAtNewline) {
  const auto tokens = Lex("auto s = \"oops\nint next;");
  // The unterminated literal must not eat the rest of the file.
  EXPECT_EQ(TextsOf(tokens),
            (std::vector<std::string>{"auto", "s", "=", "oops", "int", "next",
                                      ";"}));
}

TEST(LexerTest, IncludeDirectivesYieldHeaderTokens) {
  const auto tokens = Lex(
      "#include <mutex>\n"
      "  # include \"core/buffer.hpp\"  // trailing comment\n"
      "#define GUARD 1\n"
      "#include_next <deque>\n"
      "// #include <thread>\n"
      "/* #include <atomic> */\n"
      "auto s = R\"(\n#include <condition_variable>\n)\";\n");
  std::vector<std::pair<std::string, int>> includes;
  for (const Token& t : tokens) {
    if (t.kind == TokenKind::kInclude) includes.emplace_back(t.text, t.line);
  }
  EXPECT_EQ(includes, (std::vector<std::pair<std::string, int>>{
                          {"mutex", 1}, {"core/buffer.hpp", 2}}));
  // Every other directive, comment and raw-string body stays tokenless.
  EXPECT_EQ(tokens.size(), 2u + 5u);  // two includes; auto s = <string> ;
}

// ---- extractor -------------------------------------------------------------

FileModel Extract(const std::string& source,
                  const std::string& path = "src/demo/demo.cpp") {
  return nsm_analyze::ExtractFile(path, Lex(source));
}

const nsm_analyze::Function* FindFunction(const FileModel& model,
                                          const std::string& name) {
  for (const auto& f : model.functions) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

TEST(ModelTest, GuardAcquisitionAndLockIdentity) {
  const FileModel model = Extract(
      "void F(State& s) {\n"
      "  core::MutexLock lock(s.state_->mutex);\n"
      "}\n");
  const auto* f = FindFunction(model, "F");
  ASSERT_NE(f, nullptr);
  ASSERT_FALSE(f->events.empty());
  const Event& e = f->events.front();
  EXPECT_EQ(e.kind, EventKind::kGuardAcquire);
  EXPECT_EQ(e.name, "demo/demo::mutex");  // last identifier, file-qualified
  EXPECT_TRUE(e.core_guard);
  EXPECT_EQ(e.line, 2);
}

TEST(ModelTest, StdGuardIsNotRankable) {
  const FileModel model = Extract(
      "void F() { std::lock_guard<std::mutex> lock(AdoptMutex()); }\n");
  const auto* f = FindFunction(model, "F");
  ASSERT_NE(f, nullptr);
  const Event& e = f->events.front();
  EXPECT_EQ(e.kind, EventKind::kGuardAcquire);
  EXPECT_EQ(e.name, "demo/demo::AdoptMutex");
  EXPECT_FALSE(e.core_guard);
}

TEST(ModelTest, ScopeCloseEndsGuardLifetime) {
  // Sequential same-depth blocks must not look like nested acquisition:
  // the kScopeClose event between them is what the graph walk pops on.
  const FileModel model = Extract(
      "void F(S& s) {\n"
      "  { core::MutexLock a(s.m1); }\n"
      "  { core::MutexLock b(s.m2); }\n"
      "}\n");
  const auto* f = FindFunction(model, "F");
  ASSERT_NE(f, nullptr);
  std::vector<EventKind> kinds;
  for (const Event& e : f->events) kinds.push_back(e.kind);
  EXPECT_EQ(kinds,
            (std::vector<EventKind>{
                EventKind::kGuardAcquire, EventKind::kScopeClose,  // block one
                EventKind::kGuardAcquire, EventKind::kScopeClose,  // block two
                EventKind::kScopeClose}));                         // body close
  // Each guard lives at depth 2; the closes between the blocks report the
  // post-close depth 1, so the graph walk pops any guard deeper than 1.
  int acquires = 0;
  for (const Event& e : f->events) {
    if (e.kind == EventKind::kGuardAcquire) {
      EXPECT_EQ(e.depth, 2);
      ++acquires;
    }
  }
  EXPECT_EQ(acquires, 2);
  EXPECT_EQ(f->events[1].depth, 1);
  EXPECT_EQ(f->events[3].depth, 1);
}

TEST(ModelTest, MultiLineMetricCallIsExtracted) {
  const FileModel model = Extract(
      "void F(M* metrics, double s) {\n"
      "  metrics->Observe(\n"
      "      \"e2e.step_to_image_seconds\",\n"
      "      s);\n"
      "}\n");
  ASSERT_EQ(model.names.size(), 1u);
  EXPECT_EQ(model.names[0].name, "e2e.step_to_image_seconds");
  EXPECT_EQ(model.names[0].kind, nsm_analyze::NameKind::kMetric);
  EXPECT_EQ(model.names[0].line, 3);
}

TEST(ModelTest, SpanRequiresStringLiteralArgument) {
  // svtk's `void Span(std::span<const T>)` and other non-literal calls must
  // not reach the registry.
  const FileModel model = Extract(
      "void F(S& ser, std::vector<int>& v) { ser.Span(v); }\n"
      "void G() { instrument::Span span(\"demo.real\"); }\n");
  ASSERT_EQ(model.names.size(), 1u);
  EXPECT_EQ(model.names[0].name, "demo.real");
}

TEST(ModelTest, BlockingCallsAndCondWait) {
  const FileModel model = Extract(
      "void F(C& comm, core::CondVar& cv, core::Mutex& m) {\n"
      "  comm.Barrier();\n"
      "  comm.RecvValue<int>(0, 1);\n"
      "  cv.Wait(m);\n"
      "}\n");
  const auto* f = FindFunction(model, "F");
  ASSERT_NE(f, nullptr);
  int barriers = 0, recvs = 0, waits = 0;
  for (const Event& e : f->events) {
    if (e.kind == EventKind::kBlockingCall && e.name == "Barrier") {
      EXPECT_TRUE(e.collective);
      ++barriers;
    }
    if (e.kind == EventKind::kBlockingCall && e.name == "RecvValue") {
      EXPECT_FALSE(e.collective);  // p2p, not a collective
      ++recvs;
    }
    if (e.kind == EventKind::kCondWait) ++waits;
  }
  EXPECT_EQ(barriers, 1);
  EXPECT_EQ(recvs, 1);
  EXPECT_EQ(waits, 1);
}

TEST(ModelTest, RankConditionalBranchesAndPointToPointExemption) {
  const FileModel model = Extract(
      "void F(C& comm, int rank) {\n"
      "  if (rank == 0) {\n"
      "    comm.Barrier();\n"
      "  } else {\n"
      "    comm.Bcast(0, nullptr, 0);\n"
      "  }\n"
      "  if (comm.Rank() == 0) comm.RecvBytes(1, 0, nullptr, 0);\n"
      "}\n");
  // Only the first conditional contains collectives; RecvBytes is p2p.
  ASSERT_EQ(model.rank_conditionals.size(), 1u);
  const auto& rc = model.rank_conditionals[0];
  ASSERT_EQ(rc.then_branch.size(), 1u);
  EXPECT_EQ(rc.then_branch[0].name, "Barrier");
  ASSERT_TRUE(rc.has_else);
  ASSERT_EQ(rc.else_branch.size(), 1u);
  EXPECT_EQ(rc.else_branch[0].name, "Bcast");
}

TEST(ModelTest, ConstructorInitializerListBodyIsFound) {
  const FileModel model = Extract(
      "Pipeline::Pipeline(S& s, int depth)\n"
      "    : solver_(s), slots_(depth), flags_{} {\n"
      "  core::MutexLock lock(mutex_);\n"
      "}\n");
  const auto* f = FindFunction(model, "Pipeline");
  ASSERT_NE(f, nullptr);
  ASSERT_FALSE(f->events.empty());
  EXPECT_EQ(f->events.front().kind, EventKind::kGuardAcquire);
}

TEST(ModelTest, RankedDeclExtraction) {
  const FileModel model = Extract(
      "struct State {\n"
      "  core::Mutex mutex{core::lock_rank::kDemoDemoMutex};\n"
      "  core::Mutex bare;\n"
      "};\n");
  ASSERT_EQ(model.ranked_decls.size(), 2u);
  EXPECT_EQ(model.ranked_decls[0].member, "mutex");
  EXPECT_EQ(model.ranked_decls[0].spec_constant, "kDemoDemoMutex");
  EXPECT_EQ(model.ranked_decls[1].member, "bare");
  EXPECT_TRUE(model.ranked_decls[1].spec_constant.empty());
}

TEST(ModelTest, RawAllocationsAreExpressionsOnly) {
  const FileModel model = Extract(
      "struct S { S(const S&) = delete; };\n"
      "void* operator new(std::size_t bytes);\n"
      "void operator delete(void* p) noexcept;\n"
      "const char* k = \"new int\";  // delete p\n"
      "void F(int* p) { delete[] p; }\n"
      "auto* t = new T(1, 2);\n");
  std::vector<std::pair<std::string, int>> found;
  for (const auto& fact : model.raw_allocations) {
    found.emplace_back(fact.text, fact.line);
  }
  EXPECT_EQ(found, (std::vector<std::pair<std::string, int>>{{"delete", 5},
                                                             {"new", 6}}));
}

// ---- small check helpers ---------------------------------------------------

TEST(ChecksTest, RankConstantName) {
  EXPECT_EQ(nsm_analyze::RankConstantName("mpimini/comm::mutex"),
            "kMpiminiCommMutex");
  EXPECT_EQ(nsm_analyze::RankConstantName("core/async_pipeline::mutex_"),
            "kCoreAsyncPipelineMutex");
}

TEST(ChecksTest, NameTaxonomy) {
  EXPECT_TRUE(nsm_analyze::MatchesNameTaxonomy("layer.phase"));
  EXPECT_TRUE(nsm_analyze::MatchesNameTaxonomy("e2e.step_to_image_seconds"));
  EXPECT_FALSE(nsm_analyze::MatchesNameTaxonomy("noseparator"));
  EXPECT_FALSE(nsm_analyze::MatchesNameTaxonomy("CamelCase.Bad"));
  EXPECT_FALSE(nsm_analyze::MatchesNameTaxonomy("trailing."));
  EXPECT_FALSE(nsm_analyze::MatchesNameTaxonomy(".leading"));
  EXPECT_FALSE(nsm_analyze::MatchesNameTaxonomy("double..dot"));
}

// ---- hygiene ---------------------------------------------------------------

using Counts = std::map<std::string, int>;

Counts RuleCounts(const std::vector<nsm_analyze::Finding>& findings) {
  Counts counts;
  for (const auto& f : findings) ++counts[f.rule];
  return counts;
}

Counts HygieneCounts(const std::string& source) {
  nsm_analyze::Analysis analysis({Extract(source)}, nsm_analyze::Config{});
  std::vector<nsm_analyze::Finding> findings;
  analysis.CheckHygiene(&findings);
  return RuleCounts(findings);
}

TEST(ChecksTest, VocabularyInACommentIsNotAUse) {
  EXPECT_EQ(HygieneCounts("#include <mutex>\n"
                          "// std::mutex would guard this\n"
                          "int shared = 0;\n"),
            (Counts{{"include-hygiene", 1}}));
  EXPECT_EQ(HygieneCounts("#include <mutex>\nstd::mutex guard;\n"), Counts{});
  EXPECT_EQ(HygieneCounts("#include <atomic>\n"
                          "auto order = std::memory_order_relaxed;\n"),
            Counts{});
}

TEST(ChecksTest, JsonWriteNeedsJsonOnTheOfstreamLine) {
  EXPECT_EQ(HygieneCounts("std::ofstream out(report_json);\n"
                          "std::ofstream log(\"run.log\");\n"
                          "// std::ofstream in a comment, \"x.json\"\n"),
            (Counts{{"json-atomic-write", 1}}));
}

/// Registry (taxonomy + prefix rules, no membership gate) and hygiene
/// counts over one seeded fixture under the committed rule config.  `path`
/// is the display path, so the prefix rules see the fixture's src/... dir.
Counts FixtureCounts(const std::string& path) {
  const std::string root = NSM_SOURCE_DIR;
  std::ifstream in(root + "/" + path);
  std::ostringstream text;
  text << in.rdbuf();
  nsm_analyze::Config config;
  std::string error;
  EXPECT_TRUE(nsm_analyze::LoadConfig(root + "/tools/nsm_rules.cfg", &config,
                                      &error))
      << error;
  nsm_analyze::Analysis analysis(
      {nsm_analyze::ExtractFile(path, Lex(text.str()))}, std::move(config));
  std::vector<nsm_analyze::Finding> findings;
  analysis.CheckRegistry(nullptr, &findings);
  analysis.CheckHygiene(&findings);
  return RuleCounts(findings);
}

// The WILL_FAIL fixture ctests only prove at least one finding each.
TEST(FixtureTest, SeededFixturesGiveExactlyTheirFindings) {
  EXPECT_EQ(FixtureCounts("tools/lint_fixtures/seeded_violations.cpp"),
            (Counts{{"include-hygiene", 4},
                    {"raw-new", 2},
                    {"json-atomic-write", 1},
                    {"registry", 3}}));
  EXPECT_EQ(FixtureCounts(
                "tools/lint_fixtures/src/codec/seeded_codec_violations.cpp"),
            (Counts{{"registry", 2}}));
  EXPECT_EQ(
      FixtureCounts(
          "tools/lint_fixtures/src/instrument/seeded_monitor_violations.cpp"),
      (Counts{{"registry", 2}}));
}

}  // namespace
