// Multidimensional front-end (serve/multidim_collector + multidim_wire):
// sealed estimates must equal the batch Estimate() of the same tuple
// stream exactly for every solution/variant, ingest must be all-or-nothing
// on malformed tuples, and the wire formats must match the priced tuple
// widths (fo/comm_cost).

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/priors.h"
#include "data/synthetic.h"
#include "fo/comm_cost.h"
#include "serve/loadgen.h"
#include "serve/multidim_collector.h"

namespace ldpr::serve {
namespace {

const data::Dataset& TestDataset() {
  static const data::Dataset dataset = data::NurseryLike(7, 0.02);  // n = 259
  return dataset;
}

template <typename Solution, typename Report>
std::vector<std::vector<std::uint8_t>> SerializeAll(
    const Solution& solution, const std::vector<Report>& reports);

template <>
std::vector<std::vector<std::uint8_t>> SerializeAll(
    const multidim::Spl& spl,
    const std::vector<std::vector<fo::Report>>& reports) {
  std::vector<std::vector<std::uint8_t>> frames;
  for (const auto& r : reports) frames.push_back(SerializeSplReports(spl, r));
  return frames;
}

template <>
std::vector<std::vector<std::uint8_t>> SerializeAll(
    const multidim::Smp& smp, const std::vector<multidim::SmpReport>& reports) {
  std::vector<std::vector<std::uint8_t>> frames;
  for (const auto& r : reports) frames.push_back(SerializeSmpReport(smp, r));
  return frames;
}

template <>
std::vector<std::vector<std::uint8_t>> SerializeAll(
    const multidim::RsFd& rsfd,
    const std::vector<multidim::MultidimReport>& reports) {
  std::vector<std::vector<std::uint8_t>> frames;
  for (const auto& r : reports) frames.push_back(SerializeRsFdReport(rsfd, r));
  return frames;
}

template <>
std::vector<std::vector<std::uint8_t>> SerializeAll(
    const multidim::RsRfd& rsrfd,
    const std::vector<multidim::MultidimReport>& reports) {
  std::vector<std::vector<std::uint8_t>> frames;
  for (const auto& r : reports) {
    frames.push_back(SerializeRsRfdReport(rsrfd, r));
  }
  return frames;
}

/// Randomizes every dataset record, ships the tuples through a
/// MultidimCollector, and checks the sealed estimates against the
/// solution's own batch Estimate of the identical report vector.
template <typename Solution>
void ExpectSealMatchesBatch(const Solution& solution, int lanes) {
  const data::Dataset& ds = TestDataset();
  Rng rng(31);
  std::vector<decltype(solution.RandomizeUser(ds.Record(0), rng))> reports;
  reports.reserve(ds.n());
  for (int i = 0; i < ds.n(); ++i) {
    reports.push_back(solution.RandomizeUser(ds.Record(i), rng));
  }
  const auto frames = SerializeAll(solution, reports);

  MultidimCollector collector(solution, CollectorOptions{.lanes = lanes});
  for (std::size_t i = 0; i < frames.size(); ++i) {
    ASSERT_TRUE(collector
                    .Ingest({frames[i], std::nullopt,
                             static_cast<int>(i * 5 + 1)})
                    .accepted);
  }
  const MultidimSnapshot snapshot = collector.Seal();
  EXPECT_EQ(snapshot.n, ds.n());
  EXPECT_EQ(snapshot.stats.rejected, 0);
  const auto batch = solution.Estimate(reports);
  ASSERT_EQ(snapshot.estimates.size(), batch.size());
  for (std::size_t j = 0; j < batch.size(); ++j) {
    EXPECT_EQ(snapshot.estimates[j], batch[j]) << "attribute " << j;
  }
}

TEST(ServeMultidimTest, SplSealMatchesBatchEstimate) {
  for (fo::Protocol protocol : fo::AllProtocols()) {
    SCOPED_TRACE(fo::ProtocolName(protocol));
    multidim::Spl spl(protocol, TestDataset().domain_sizes(), 2.0);
    ExpectSealMatchesBatch(spl, 3);
  }
}

TEST(ServeMultidimTest, SmpSealMatchesBatchEstimate) {
  for (fo::Protocol protocol : fo::AllProtocols()) {
    SCOPED_TRACE(fo::ProtocolName(protocol));
    multidim::Smp smp(protocol, TestDataset().domain_sizes(), 2.0);
    ExpectSealMatchesBatch(smp, 4);
  }
}

TEST(ServeMultidimTest, RsFdSealMatchesBatchEstimate) {
  for (multidim::RsFdVariant variant :
       {multidim::RsFdVariant::kGrr, multidim::RsFdVariant::kSueZ,
        multidim::RsFdVariant::kSueR, multidim::RsFdVariant::kOueZ,
        multidim::RsFdVariant::kOueR}) {
    SCOPED_TRACE(multidim::RsFdVariantName(variant));
    multidim::RsFd rsfd(variant, TestDataset().domain_sizes(), 2.0);
    ExpectSealMatchesBatch(rsfd, 2);
  }
}

TEST(ServeMultidimTest, RsRfdSealMatchesBatchEstimate) {
  Rng rng(9);
  const auto priors =
      data::BuildPriors(TestDataset(), data::PriorKind::kCorrectLaplace, rng);
  for (multidim::RsRfdVariant variant :
       {multidim::RsRfdVariant::kGrr, multidim::RsRfdVariant::kSueR,
        multidim::RsRfdVariant::kOueR}) {
    SCOPED_TRACE(multidim::RsRfdVariantName(variant));
    multidim::RsRfd rsrfd(variant, TestDataset().domain_sizes(), 2.0, priors);
    ExpectSealMatchesBatch(rsrfd, 3);
  }
}

// The packed tuple widths are exactly what the communication-cost model
// prices (SPL / RS+FD closed forms; SMP per sampled attribute).
TEST(ServeMultidimTest, WireWidthsMatchCommCostModel) {
  const std::vector<int>& ks = TestDataset().domain_sizes();
  const double eps = 2.0;
  for (fo::Protocol protocol :
       {fo::Protocol::kGrr, fo::Protocol::kSue, fo::Protocol::kOue}) {
    multidim::Spl spl(protocol, ks, eps);
    EXPECT_DOUBLE_EQ(SplTupleWireBits(spl),
                     fo::SplTupleBits(protocol, ks, eps));
    multidim::Smp smp(protocol, ks, eps);
    double mean_bits = 0.0;
    for (int j = 0; j < smp.d(); ++j) {
      mean_bits += SmpTupleWireBits(smp, j);
    }
    mean_bits /= smp.d();
    EXPECT_DOUBLE_EQ(mean_bits, fo::SmpTupleBits(protocol, ks, eps));
  }
  // RS+FD GRR: every attribute ships one categorical value at the amplified
  // budget; widths do not depend on epsilon.
  multidim::RsFd rsfd(multidim::RsFdVariant::kGrr, ks, eps);
  EXPECT_DOUBLE_EQ(FdTupleWireBits(false, ks),
                   fo::RsFdTupleBits(fo::Protocol::kGrr, ks, eps));
  multidim::RsFd rsfd_ue(multidim::RsFdVariant::kOueZ, ks, eps);
  EXPECT_DOUBLE_EQ(FdTupleWireBits(true, ks),
                   fo::RsFdTupleBits(fo::Protocol::kOue, ks, eps));
}

// Ingest is all-or-nothing: a tuple whose *last* attribute field is
// malformed must leave every aggregator untouched.
TEST(ServeMultidimTest, MalformedTupleLeavesNothingBehind) {
  const std::vector<int> ks = {4, 6};  // 6 is not a power of two: value 7
                                       // is representable but invalid
  multidim::RsFd rsfd(multidim::RsFdVariant::kGrr, ks, 2.0);
  MultidimCollector collector(rsfd, CollectorOptions{.lanes = 1});

  Rng rng(3);
  const auto good = rsfd.RandomizeUser({1, 2}, rng);
  const auto good_frame = SerializeRsFdReport(rsfd, good);

  // Craft a tuple with valid attribute 0 and out-of-range attribute 1.
  fo::BitWriter writer;
  writer.Write(2, fo::CeilLog2(4));
  writer.Write(7, fo::CeilLog2(6));  // 7 >= k_1 = 6
  EXPECT_FALSE(collector.Ingest({writer.bytes()}).accepted);

  EXPECT_TRUE(collector.Ingest({good_frame}).accepted);
  const MultidimSnapshot snapshot = collector.Seal();
  EXPECT_EQ(snapshot.n, 1);
  EXPECT_EQ(snapshot.stats.rejected, 1);
  // Only the good tuple contributed: the sealed estimate equals the batch
  // estimate of that single report.
  const auto batch = rsfd.Estimate({good});
  for (std::size_t j = 0; j < batch.size(); ++j) {
    EXPECT_EQ(snapshot.estimates[j], batch[j]);
  }
}

// Fuzz every solution front-end with random buffers (this suite runs under
// the ASan fast label): clean accept-or-reject, balanced ledger.
TEST(ServeMultidimTest, RandomBuffersNeverCrash) {
  const data::Dataset& ds = TestDataset();
  multidim::Spl spl(fo::Protocol::kGrr, ds.domain_sizes(), 2.0);
  multidim::Smp smp(fo::Protocol::kOue, ds.domain_sizes(), 2.0);
  multidim::RsFd rsfd(multidim::RsFdVariant::kOueZ, ds.domain_sizes(), 2.0);
  MultidimCollector collectors[] = {
      MultidimCollector(spl, CollectorOptions{.lanes = 2}),
      MultidimCollector(smp, CollectorOptions{.lanes = 2}),
      MultidimCollector(rsfd, CollectorOptions{.lanes = 2}),
  };
  Rng rng(77);
  for (MultidimCollector& collector : collectors) {
    long long accepted = 0;
    const int attempts = 1500;
    for (int trial = 0; trial < attempts; ++trial) {
      std::vector<std::uint8_t> buffer(rng.UniformInt(24));
      for (std::uint8_t& b : buffer) {
        b = static_cast<std::uint8_t>(rng.UniformInt(256));
      }
      accepted +=
          collector.Ingest({buffer, std::nullopt, trial}).accepted ? 1 : 0;
    }
    const MultidimSnapshot snapshot = collector.Seal();
    EXPECT_EQ(snapshot.n, accepted);
    EXPECT_EQ(snapshot.stats.rejected, attempts - accepted);
  }
}

// SMP tuples with an out-of-range attribute index (representable when d is
// not a power of two) are rejected.
TEST(ServeMultidimTest, SmpOutOfRangeAttributeRejected) {
  const std::vector<int> ks = {3, 3, 3, 3, 3};  // d = 5 -> 3 index bits
  multidim::Smp smp(fo::Protocol::kGrr, ks, 2.0);
  MultidimCollector collector(smp, CollectorOptions{.lanes = 1});
  Rng rng(4);
  const auto report = smp.RandomizeUserAttribute({0, 1, 2, 0, 1}, 2, rng);
  std::vector<std::uint8_t> frame = SerializeSmpReport(smp, report);
  EXPECT_TRUE(collector.Ingest({frame}).accepted);
  // Overwrite the 3 index bits with 6 (>= d).
  frame[0] = static_cast<std::uint8_t>((frame[0] & 0x1F) | (6u << 5));
  const IngestResult rejected = collector.Ingest({frame});
  EXPECT_FALSE(rejected.accepted);
  EXPECT_EQ(rejected.reason, RejectReason::kMalformed);
  const MultidimSnapshot snapshot = collector.Seal();
  EXPECT_EQ(snapshot.n, 1);
  EXPECT_EQ(snapshot.stats.rejected, 1);
}

// ---- Chunked and concurrent ingest (IngestAll / IngestFrames) ----

using CollectorFactory =
    std::function<std::unique_ptr<MultidimCollector>(int lanes)>;

template <typename Solution>
CollectorFactory FactoryFor(const Solution& solution) {
  return [&solution](int lanes) {
    return std::make_unique<MultidimCollector>(
        solution, CollectorOptions{.lanes = lanes});
  };
}

/// Runs `check(name, make, frames)` for SPL and SMP over all five
/// protocols, RS+FD over its five variants and RS+RFD over its three, each
/// with its loadgen frames of `ds`.
void ForEachSolution(
    const data::Dataset& ds,
    const std::function<void(const std::string&, const CollectorFactory&,
                             const EncodedFrames&)>& check) {
  const double eps = 2.0;
  Rng root(41);
  for (fo::Protocol protocol : fo::AllProtocols()) {
    const std::string name = fo::ProtocolName(protocol);
    multidim::Spl spl(protocol, ds.domain_sizes(), eps);
    check("SPL/" + name, FactoryFor(spl), EncodeSplLoad(spl, ds, root));
    multidim::Smp smp(protocol, ds.domain_sizes(), eps);
    check("SMP/" + name, FactoryFor(smp), EncodeSmpLoad(smp, ds, root));
  }
  for (multidim::RsFdVariant variant :
       {multidim::RsFdVariant::kGrr, multidim::RsFdVariant::kSueZ,
        multidim::RsFdVariant::kSueR, multidim::RsFdVariant::kOueZ,
        multidim::RsFdVariant::kOueR}) {
    multidim::RsFd rsfd(variant, ds.domain_sizes(), eps);
    check(std::string("RS+FD/") + multidim::RsFdVariantName(variant),
          FactoryFor(rsfd), EncodeRsFdLoad(rsfd, ds, root));
  }
  Rng prior_rng(9);
  const auto priors =
      data::BuildPriors(ds, data::PriorKind::kCorrectLaplace, prior_rng);
  for (multidim::RsRfdVariant variant :
       {multidim::RsRfdVariant::kGrr, multidim::RsRfdVariant::kSueR,
        multidim::RsRfdVariant::kOueR}) {
    multidim::RsRfd rsrfd(variant, ds.domain_sizes(), eps, priors);
    check(std::string("RS+RFD/") + multidim::RsRfdVariantName(variant),
          FactoryFor(rsrfd), EncodeRsRfdLoad(rsrfd, ds, root));
  }
}

void ExpectSameSnapshot(const MultidimSnapshot& a, const MultidimSnapshot& b) {
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.estimates, b.estimates);  // exact, element by element
  EXPECT_EQ(a.stats.reports, b.stats.reports);
  EXPECT_EQ(a.stats.bytes, b.stats.bytes);
  EXPECT_EQ(a.stats.rejected, b.stats.rejected);
  EXPECT_EQ(a.ledger.total_epsilon, b.ledger.total_epsilon);
  EXPECT_EQ(a.ledger.per_attribute, b.ledger.per_attribute);
  EXPECT_EQ(a.cumulative_ledger.per_attribute,
            b.cumulative_ledger.per_attribute);
}

// Three producers on three lanes (IngestFrames: each producer pulls its
// shard through IngestAll in 4096-frame chunks, two chunks each at this n)
// seal bit-identical to one lane fed by per-record Ingest, epoch after
// epoch.
TEST(ServeMultidimTest, ConcurrentIngestFramesMatchesOneLanePerRecordIngest) {
  const data::Dataset ds = data::NurseryLike(11);  // n = 12959
  ForEachSolution(ds, [](const std::string& name,
                         const CollectorFactory& make,
                         const EncodedFrames& frames) {
    SCOPED_TRACE(name);
    const auto concurrent = make(3);
    const auto reference = make(1);
    for (int epoch = 0; epoch < 3; ++epoch) {
      SCOPED_TRACE(epoch);
      EXPECT_EQ(IngestFrames(*concurrent, frames, 3), frames.count());
      for (long long i = 0; i < frames.count(); ++i) {
        ASSERT_TRUE(
            reference->Ingest({{frames.frame(i), frames.frame_size(i)}})
                .accepted);
      }
      const MultidimSnapshot got = concurrent->Seal();
      EXPECT_EQ(got.n, frames.count());
      ExpectSameSnapshot(got, reference->Seal());
    }
  });
}

// A source over a fixed request list, recording every verdict in order.
class ListSource final : public IngestSource {
 public:
  explicit ListSource(const std::vector<IngestRequest>& requests)
      : requests_(requests) {}
  bool Next(IngestRequest& request) override {
    if (next_ == requests_.size()) return false;
    request = requests_[next_++];
    return true;
  }
  void Done(const IngestRequest&, IngestResult result) override {
    results.push_back(result);
  }
  std::vector<IngestResult> results;

 private:
  const std::vector<IngestRequest>& requests_;
  std::size_t next_ = 0;
};

// Good tuples interleaved with malformed ones: too long, too short, a
// flipped final bit (nonzero padding where the tuple has any), all-ones
// index bits (SMP attribute >= d at d = 9), all-ones fields (GRR values
// >= k_j where k_j is not a power of two) and all-ones top bits of the last
// byte (a late field out of range, after earlier fields were read). Under
// lane hints that change mid-source, IngestAll gives every request Ingest's
// verdict, in order, and both seal the same epoch as a collector fed only
// the accepted tuples.
TEST(ServeMultidimTest, IngestAllMatchesPerRecordIngestOnMalformedMix) {
  ForEachSolution(TestDataset(), [](const std::string& name,
                                    const CollectorFactory& make,
                                    const EncodedFrames& frames) {
    SCOPED_TRACE(name);
    std::vector<std::vector<std::uint8_t>> buffers;
    for (long long i = 0; i < frames.count(); ++i) {
      const std::vector<std::uint8_t> good(
          frames.frame(i), frames.frame(i) + frames.frame_size(i));
      std::vector<std::uint8_t> bad = good;
      switch (i % 6) {
        case 0:
          bad.push_back(0);
          break;
        case 1:
          bad.pop_back();
          break;
        case 2:
          bad.back() ^= 1;
          break;
        case 3:
          bad[0] |= 0xF0;
          break;
        case 4:
          std::fill(bad.begin(), bad.end() - 1, 0xFF);
          break;
        case 5:
          bad.back() |= 0xE0;
          break;
      }
      buffers.push_back(good);
      buffers.push_back(std::move(bad));
    }
    const int hints[] = {0, 0, 3, 1, 1, 4, 2, 0, 3, 3, 5};
    std::vector<IngestRequest> requests;
    for (std::size_t i = 0; i < buffers.size(); ++i) {
      requests.push_back({buffers[i], std::nullopt, hints[i % 11]});
    }
    const auto pulled = make(3);
    const auto pushed = make(3);
    ListSource source(requests);
    pulled->IngestAll(source);
    ASSERT_EQ(source.results.size(), requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const IngestResult expected = pushed->Ingest(requests[i]);
      EXPECT_EQ(source.results[i].accepted, expected.accepted) << i;
      EXPECT_EQ(source.results[i].reason, expected.reason) << i;
      if (i % 2 == 1 && (i / 2) % 6 <= 1) {
        EXPECT_FALSE(expected.accepted) << "wrong-size tuple " << i;
      }
    }
    // All-or-nothing: the rejected tuples left nothing behind, so the
    // epoch equals one fed only the accepted tuples.
    const auto accepted_only = make(1);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (source.results[i].accepted) accepted_only->Ingest(requests[i]);
    }
    const MultidimSnapshot a = pulled->Seal();
    const MultidimSnapshot b = pushed->Seal();
    const MultidimSnapshot clean = accepted_only->Seal();
    EXPECT_GT(a.stats.rejected, 0);
    EXPECT_EQ(a.n + a.stats.rejected,
              static_cast<long long>(requests.size()));
    ExpectSameSnapshot(a, b);
    EXPECT_EQ(a.n, clean.n);
    EXPECT_EQ(a.estimates, clean.estimates);
  });
}

}  // namespace
}  // namespace ldpr::serve
