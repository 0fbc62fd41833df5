// Chaos soak for the alignment service: a flood of retrying clients
// against a server running a randomized (but seeded, hence reproducible)
// fault plan. The contract under test is absolute: every request
// terminates — promptly — in exactly one of
//   * an ALIGN_OK whose score is bit-identical to direct align(), or
//   * a typed ErrorResponse, or
//   * a typed TransportError / ProtocolError on the client,
// never a hang, never a silent drop, never a plausible-but-wrong score.
// These tests run under TSan in CI (the `service-chaos` job): the
// injector's kill/truncate/delay paths racing the worker pool's response
// writes are the subject under test as much as the outcomes are.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "core/aligner.hpp"
#include "search/chain.hpp"
#include "search/reference_index.hpp"
#include "obs/metrics.hpp"
#include "scoring/builtin.hpp"
#include "scoring/scheme.hpp"
#include "sequence/generate.hpp"
#include "service/client.hpp"
#include "service/fault.hpp"
#include "service/server.hpp"

namespace flsa {
namespace service {
namespace {

// ---- Fault-plan grammar ----------------------------------------------

TEST(FaultPlan, ParsesTheFullGrammar) {
  const FaultPlan plan = parse_fault_plan(
      "seed=42,reject=0.2,drop=0.05,delay=0.1:25,truncate=0.05,"
      "corrupt=0.125");
  EXPECT_EQ(plan.seed, 42u);
  EXPECT_DOUBLE_EQ(plan.reject, 0.2);
  EXPECT_DOUBLE_EQ(plan.drop, 0.05);
  EXPECT_DOUBLE_EQ(plan.delay, 0.1);
  EXPECT_EQ(plan.delay_ms, 25u);
  EXPECT_DOUBLE_EQ(plan.truncate, 0.05);
  EXPECT_DOUBLE_EQ(plan.corrupt, 0.125);
  EXPECT_TRUE(plan.enabled());
}

TEST(FaultPlan, EmptyAndOffAreInactive) {
  EXPECT_FALSE(parse_fault_plan("").enabled());
  EXPECT_FALSE(parse_fault_plan("off").enabled());
  EXPECT_FALSE(parse_fault_plan("seed=9").enabled());  // seed alone: no faults
}

TEST(FaultPlan, RoundTripsThroughToString) {
  const FaultPlan plan =
      parse_fault_plan("seed=7,reject=0.25,delay=0.5:100,corrupt=0.75");
  const FaultPlan again = parse_fault_plan(to_string(plan));
  EXPECT_EQ(again.seed, plan.seed);
  EXPECT_DOUBLE_EQ(again.reject, plan.reject);
  EXPECT_DOUBLE_EQ(again.delay, plan.delay);
  EXPECT_EQ(again.delay_ms, plan.delay_ms);
  EXPECT_DOUBLE_EQ(again.corrupt, plan.corrupt);
  EXPECT_EQ(to_string(parse_fault_plan("off")), "off");
}

TEST(FaultPlan, RejectsBadGrammar) {
  EXPECT_THROW(parse_fault_plan("bogus=1"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("reject"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("reject=1.5"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("reject=-0.1"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("reject=abc"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("delay=0.5:999999"), std::invalid_argument);
  EXPECT_THROW(parse_fault_plan("seed=notanumber"), std::invalid_argument);
}

TEST(FaultInjector, TruncationIsAlwaysAStrictPrefix) {
  FaultInjector injector(parse_fault_plan("seed=11,truncate=1"));
  for (std::size_t size : {std::size_t(1), std::size_t(2), std::size_t(5),
                           std::size_t(64), std::size_t(4096)}) {
    for (int i = 0; i < 32; ++i) {
      const std::size_t cut = injector.truncate_point(size);
      EXPECT_LT(cut, size);  // strict: the peer always sees EOF mid-frame
    }
  }
}

TEST(FaultInjector, SameSeedSameSchedule) {
  const FaultPlan plan = parse_fault_plan("seed=99,drop=0.5,reject=0.5");
  FaultInjector a(plan), b(plan);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(a.inject_reject(), b.inject_reject());
    EXPECT_EQ(a.inject_read() == ReadFault::kDrop,
              b.inject_read() == ReadFault::kDrop);
  }
}

TEST(FaultInjector, InterruptEndsStallsUntilResumed) {
  using std::chrono::milliseconds;
  using std::chrono::steady_clock;
  FaultInjector injector(parse_fault_plan("seed=5,delay=1:60000"));
  // A reader stalled for a minute is released at once by interrupt().
  std::thread reader([&] { injector.inject_read(); });
  std::this_thread::sleep_for(milliseconds(20));
  const auto released = steady_clock::now();
  injector.interrupt();
  reader.join();
  EXPECT_LT(steady_clock::now() - released, milliseconds(5000));
  // Until resume(), later stalls return at once.
  const auto later = steady_clock::now();
  injector.inject_write();
  EXPECT_LT(steady_clock::now() - later, milliseconds(5000));

  FaultInjector short_stalls(parse_fault_plan("seed=5,delay=1:30"));
  short_stalls.interrupt();
  short_stalls.resume();
  const auto rearmed = steady_clock::now();
  short_stalls.inject_read();
  EXPECT_GE(steady_clock::now() - rearmed, milliseconds(30));
}

// ---- The soak itself --------------------------------------------------

struct SoakTally {
  std::atomic<std::uint64_t> correct{0};     ///< bit-identical scores
  std::atomic<std::uint64_t> rejected{0};    ///< typed ErrorResponse
  std::atomic<std::uint64_t> transport{0};   ///< typed TransportError
  std::atomic<std::uint64_t> protocol{0};    ///< typed ProtocolError
  std::atomic<std::uint64_t> wrong{0};       ///< the unforgivable bucket
};

/// One client thread: `requests` closed-loop calls through the retry
/// layer, every outcome tallied. Anything that is not a correct score or
/// a typed error lands in `failures[index]` and fails the test.
void soak_client(const AlignmentServer& server, unsigned index,
                 int requests, const std::string& a, const std::string& b,
                 Score expected, SoakTally* tally, std::string* failure) {
  RetryPolicy policy;
  policy.max_attempts = 8;
  policy.base_delay = std::chrono::milliseconds(1);
  policy.max_delay = std::chrono::milliseconds(20);
  policy.retry_budget = std::chrono::milliseconds(5000);
  policy.seed = 0xC0FFEE + index;

  Client client;
  try {
    client.connect("127.0.0.1", server.port());
  } catch (const TransportError&) {
    // The server may already be draining (stop-under-fire soak); every
    // request this thread would have made terminates typed.
    tally->transport.fetch_add(static_cast<std::uint64_t>(requests));
    return;
  }
  for (int i = 0; i < requests; ++i) {
    AlignRequest request;
    request.matrix = WireMatrix::kMdm78;
    request.gap_extend = -10;
    request.a = a;
    request.b = b;
    try {
      const Response response =
          client.call_with_retry(std::move(request), policy);
      if (const auto* ok = std::get_if<AlignResponse>(&response)) {
        if (ok->score == expected) {
          tally->correct.fetch_add(1);
        } else {
          tally->wrong.fetch_add(1);
          *failure = "wrong score " + std::to_string(ok->score) +
                     " (expected " + std::to_string(expected) + ")";
          return;
        }
      } else if (std::holds_alternative<ErrorResponse>(response)) {
        tally->rejected.fetch_add(1);
      } else {
        *failure = "unexpected STATS response";
        return;
      }
    } catch (const ProtocolError&) {
      // A corrupt fault consumed this request's answer; the stream is
      // still frame-aligned but the connection's trust is spent.
      tally->protocol.fetch_add(1);
      client.close();
    } catch (const TransportError&) {
      tally->transport.fetch_add(1);  // retries exhausted, typed
    } catch (const std::exception& e) {
      *failure = std::string("untyped failure: ") + e.what();
      return;
    }
  }
}

TEST(Chaos, EveryRequestTerminatesCorrectOrTyped) {
  ServiceConfig config;
  config.workers = 2;
  config.queue_capacity = 8;
  config.fault_plan = parse_fault_plan(
      "seed=42,reject=0.15,drop=0.05,delay=0.1:5,truncate=0.05,"
      "corrupt=0.05");
  AlignmentServer server(config);
  server.start();

  Xoshiro256 rng(4242);
  MutationModel model;
  const SequencePair pair =
      homologous_pair(Alphabet::protein(), 112, model, rng);
  const std::string a = pair.a.to_string();
  const std::string b = pair.b.to_string();
  AlignOptions options;
  options.strategy = Strategy::kFastLsa;
  const Score expected =
      align(Sequence(Alphabet::protein(), a), Sequence(Alphabet::protein(), b),
            ScoringScheme(scoring::mdm78(), -10), options)
          .score;

  constexpr unsigned kClients = 4;
  constexpr int kRequestsEach = 24;
  SoakTally tally;
  std::vector<std::string> failures(kClients);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      soak_client(server, t, kRequestsEach, a, b, expected, &tally,
                  &failures[t]);
    });
  }
  for (std::thread& thread : threads) thread.join();
  server.stop();

  for (unsigned t = 0; t < kClients; ++t) {
    EXPECT_EQ(failures[t], "") << "client " << t;
  }
  const std::uint64_t total = tally.correct + tally.rejected +
                              tally.transport + tally.protocol + tally.wrong;
  EXPECT_EQ(total, std::uint64_t(kClients) * kRequestsEach)
      << "some request terminated in no bucket at all";
  EXPECT_EQ(tally.wrong.load(), 0u) << "a damaged frame decoded to a score";
  // With 8 retry attempts against these fault rates, the overwhelming
  // majority of requests must still come back correct.
  EXPECT_GE(tally.correct.load(), std::uint64_t(kClients) * kRequestsEach / 2)
      << "correct=" << tally.correct << " rejected=" << tally.rejected
      << " transport=" << tally.transport << " protocol=" << tally.protocol;
}

TEST(Chaos, RetryRecoversEveryInjectedOverload) {
  // Admission rejections only — the one fault class retry is *guaranteed*
  // to beat, because the request was provably never executed. With a 25%
  // rejection rate and 12 attempts, the chance any of the 48 calls
  // exhausts its attempts is ~48 * 0.25^12 ≈ 3e-6.
  ServiceConfig config;
  config.fault_plan = parse_fault_plan("seed=7,reject=0.25");
  AlignmentServer server(config);
  server.start();

  const std::uint64_t recovered_before =
      obs::metrics().counter("client.retry.recovered").value();

  RetryPolicy policy;
  policy.max_attempts = 12;
  policy.base_delay = std::chrono::milliseconds(1);
  policy.max_delay = std::chrono::milliseconds(10);
  policy.seed = 0xBACC0FF;

  Client client;
  client.connect("127.0.0.1", server.port());
  constexpr int kCalls = 48;
  int succeeded = 0;
  for (int i = 0; i < kCalls; ++i) {
    AlignRequest request;
    request.matrix = WireMatrix::kMdm78;
    request.gap_extend = -10;
    request.a = "TLDKLLKD";
    request.b = "TDVLKAD";
    const Response response =
        client.call_with_retry(std::move(request), policy);
    const auto* ok = std::get_if<AlignResponse>(&response);
    if (ok != nullptr && ok->score == 82) ++succeeded;
  }
  server.stop();

  EXPECT_EQ(succeeded, kCalls)
      << "retry failed to recover an idempotent-safe OVERLOADED rejection";
  // The injector fired on roughly a quarter of all attempts, so at least
  // one call must have needed (and recorded) a recovery.
  EXPECT_GT(obs::metrics().counter("client.retry.recovered").value(),
            recovered_before);
}

TEST(Chaos, SearchUnderFireIsBitIdenticalOrTyped) {
  // The SEARCH verb under the full fault plan: every search terminates in
  // a SearchResponse whose hits are bit-identical to the in-process
  // chained search, a typed ErrorResponse, or a typed client-side
  // transport/protocol error. Never a hang, never a garbled hit list.
  ServiceConfig config;
  config.workers = 2;
  config.fault_plan = parse_fault_plan(
      "seed=77,reject=0.1,drop=0.05,delay=0.1:5,truncate=0.05,"
      "corrupt=0.05");
  AlignmentServer server(config);
  server.start();

  Xoshiro256 rng(7777);
  const Sequence gene = random_sequence(Alphabet::dna(), 140, rng);
  MutationModel model;
  model.substitution_rate = 0.04;
  const std::string reference_text =
      random_sequence(Alphabet::dna(), 1200, rng).to_string() +
      mutate(gene, model, rng).to_string() +
      random_sequence(Alphabet::dna(), 900, rng).to_string();

  // The in-process truth under the server's DNA defaults (k = 12).
  const search::ReferenceIndex index(
      Sequence(Alphabet::dna(), reference_text), 12);
  const auto expected = search::chained_search(
      gene, index, ScoringScheme(scoring::dna(), kDefaultGapExtend), {});
  ASSERT_FALSE(expected.empty());

  // Register the reference through the faulty pipe. REF_PUT has no retry
  // overload (it is not idempotent); the test retries by hand and uses
  // whichever registration answered last.
  Client client;
  client.connect("127.0.0.1", server.port());
  std::uint64_t ref_id = 0;
  for (int attempt = 0; attempt < 32 && ref_id == 0; ++attempt) {
    try {
      if (!client.connected()) client.connect("127.0.0.1", server.port());
      RefPutRequest put;
      put.matrix = WireMatrix::kDna;
      put.sequence = reference_text;
      const Response response = client.call(std::move(put));
      if (const auto* ok = std::get_if<RefPutResponse>(&response)) {
        ref_id = ok->ref_id;
      }
    } catch (const TransportError&) {
      client.close();
    } catch (const ProtocolError&) {
      client.close();
    }
  }
  ASSERT_NE(ref_id, 0u) << "REF_PUT never survived the fault plan";

  RetryPolicy policy;
  policy.max_attempts = 8;
  policy.base_delay = std::chrono::milliseconds(1);
  policy.max_delay = std::chrono::milliseconds(20);
  policy.seed = 0x5EA4C4;

  constexpr int kCalls = 24;
  int correct = 0, rejected = 0, transport = 0, protocol = 0;
  for (int i = 0; i < kCalls; ++i) {
    SearchRequest request;
    request.ref_id = ref_id;
    request.matrix = WireMatrix::kDna;
    request.query = gene.to_string();
    try {
      const Response response =
          client.call_with_retry(std::move(request), policy);
      if (const auto* ok = std::get_if<SearchResponse>(&response)) {
        ASSERT_EQ(ok->hits.size(), expected.size()) << "call " << i;
        for (std::size_t h = 0; h < expected.size(); ++h) {
          const Alignment& want = expected[h].alignment;
          ASSERT_EQ(ok->hits[h].score, want.score) << "call " << i;
          ASSERT_EQ(ok->hits[h].s_begin, want.b_begin) << "call " << i;
          ASSERT_EQ(ok->hits[h].s_end, want.b_end) << "call " << i;
          ASSERT_EQ(ok->hits[h].cigar, want.cigar()) << "call " << i;
        }
        ++correct;
      } else if (std::holds_alternative<ErrorResponse>(response)) {
        ++rejected;
      } else {
        FAIL() << "unexpected response variant on call " << i;
      }
    } catch (const ProtocolError&) {
      ++protocol;
      client.close();
    } catch (const TransportError&) {
      ++transport;
    }
  }
  server.stop();

  EXPECT_EQ(correct + rejected + transport + protocol, kCalls);
  // With 8 retry attempts most searches must still come back correct.
  EXPECT_GE(correct, kCalls / 2)
      << "correct=" << correct << " rejected=" << rejected
      << " transport=" << transport << " protocol=" << protocol;
}

TEST(Chaos, RefPutRetriesNeverDoubleRegister) {
  // Drop faults kill connections *after* the server may already have
  // executed the REF_PUT — the classic at-least-once hazard. With the
  // content token filled in by call_with_retry, every resend of the
  // same sequence must settle on the original handle: one id per
  // distinct sequence, no matter how many attempts or what display
  // name each attempt carried.
  ServiceConfig config;
  config.fault_plan = parse_fault_plan("seed=31,drop=0.2,reject=0.1");
  AlignmentServer server(config);
  server.start();

  const std::uint64_t dedup_before =
      obs::metrics().counter("search.ref_dedup_hits").value();

  RetryPolicy policy;
  policy.max_attempts = 12;
  policy.base_delay = std::chrono::milliseconds(1);
  policy.max_delay = std::chrono::milliseconds(10);
  policy.seed = 0xC0DE;

  Client client;
  client.connect("127.0.0.1", server.port());
  Xoshiro256 rng(920);
  constexpr int kSequences = 6;
  constexpr int kRounds = 4;
  std::vector<std::string> sequences;
  for (int s = 0; s < kSequences; ++s) {
    sequences.push_back(
        random_sequence(Alphabet::dna(), 300, rng).to_string());
  }
  std::vector<std::uint64_t> ids(kSequences, 0);
  int registered = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (int s = 0; s < kSequences; ++s) {
      RefPutRequest put;
      put.matrix = WireMatrix::kDna;
      put.name = "try-" + std::to_string(round);  // token ignores the name
      put.sequence = sequences[static_cast<std::size_t>(s)];
      const Response response = client.call_with_retry(std::move(put), policy);
      const auto* ok = std::get_if<RefPutResponse>(&response);
      ASSERT_NE(ok, nullptr) << "round " << round << " sequence " << s;
      ++registered;
      std::uint64_t& id = ids[static_cast<std::size_t>(s)];
      if (id == 0) {
        id = ok->ref_id;
      } else {
        EXPECT_EQ(ok->ref_id, id)
            << "retried REF_PUT registered a duplicate (round " << round
            << ", sequence " << s << ")";
      }
    }
  }
  server.stop();
  EXPECT_EQ(registered, kSequences * kRounds);
  // Rounds past the first are replays by construction, so the dedup
  // path must have fired at least that many times.
  EXPECT_GE(obs::metrics().counter("search.ref_dedup_hits").value(),
            dedup_before + kSequences * (kRounds - 1));
}

TEST(Chaos, UploadUnderFireResumesToTheSameHandle) {
  // The streaming path under drop/truncate faults: upload_sequence
  // reconnects and resumes from the server's high-water mark, so the
  // sealed sequence must be byte-identical to the input — proven by
  // aligning it against the original via ALIGN_REF (an all-match
  // self-alignment scores exactly 5 per residue).
  ServiceConfig config;
  config.fault_plan = parse_fault_plan("seed=47,drop=0.05,truncate=0.03");
  AlignmentServer server(config);
  server.start();

  Client client;
  client.connect("127.0.0.1", server.port());
  Xoshiro256 rng(921);
  const std::string letters =
      random_sequence(Alphabet::dna(), 20000, rng).to_string();

  Client::UploadOptions options;
  options.matrix = WireMatrix::kDna;
  options.chunk_residues = 512;  // many chunks -> many fault opportunities
  options.max_resumes = 64;
  const Response uploaded = client.upload_sequence(letters, options);
  const auto* ok = std::get_if<SeqOkResponse>(&uploaded);
  ASSERT_NE(ok, nullptr) << "upload did not survive the fault plan";
  EXPECT_EQ(ok->residues, letters.size());

  AlignRefRequest request;
  request.ref_a = ok->ref_id;
  request.matrix = WireMatrix::kDna;
  request.b = letters;
  request.gap_open = 0;  // banded self-alignment: fast, diagonal optimum
  request.gap_extend = -4;
  request.band = 16;
  request.score_only = true;
  RetryPolicy policy;
  policy.max_attempts = 12;
  policy.base_delay = std::chrono::milliseconds(1);
  policy.max_delay = std::chrono::milliseconds(10);
  policy.seed = 0xFA57;
  const Response aligned = client.call_with_retry(request, policy);
  const auto* part = std::get_if<AlignPartResponse>(&aligned);
  ASSERT_NE(part, nullptr) << "ALIGN_REF did not survive the fault plan";
  EXPECT_EQ(part->score,
            static_cast<std::int64_t>(letters.size()) * 5)
      << "stored bytes differ from the uploaded letters";
  server.stop();
}

TEST(Chaos, DrainUnderFireStaysTyped) {
  // Stop the server while retrying clients are mid-flight: every
  // in-flight and every subsequent request still terminates typed
  // (SHUTTING_DOWN, a transport error, or a late correct answer).
  ServiceConfig config;
  config.workers = 2;
  config.fault_plan = parse_fault_plan("seed=13,reject=0.2,delay=0.2:5");
  AlignmentServer server(config);
  server.start();

  Xoshiro256 rng(1313);
  MutationModel model;
  const SequencePair pair =
      homologous_pair(Alphabet::protein(), 96, model, rng);
  const std::string a = pair.a.to_string();
  const std::string b = pair.b.to_string();
  AlignOptions options;
  options.strategy = Strategy::kFastLsa;
  const Score expected =
      align(Sequence(Alphabet::protein(), a), Sequence(Alphabet::protein(), b),
            ScoringScheme(scoring::mdm78(), -10), options)
          .score;

  constexpr unsigned kClients = 3;
  constexpr int kRequestsEach = 16;
  SoakTally tally;
  std::vector<std::string> failures(kClients);
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      soak_client(server, t, kRequestsEach, a, b, expected, &tally,
                  &failures[t]);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server.stop();  // mid-flood
  for (std::thread& thread : threads) thread.join();

  for (unsigned t = 0; t < kClients; ++t) {
    EXPECT_EQ(failures[t], "") << "client " << t;
  }
  EXPECT_EQ(tally.wrong.load(), 0u);
  EXPECT_EQ(tally.correct + tally.rejected + tally.transport +
                tally.protocol,
            std::uint64_t(kClients) * kRequestsEach);
}

}  // namespace
}  // namespace service
}  // namespace flsa
