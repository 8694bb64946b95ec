#ifndef LDPR_SERVE_MULTIDIM_COLLECTOR_H_
#define LDPR_SERVE_MULTIDIM_COLLECTOR_H_

// Multidimensional front-end of the collection service: routes wire-encoded
// SPL / SMP / RS+FD / RS+RFD tuples (serve/multidim_wire formats) into the
// scalar Collector's lane set (serve/lanes.h); each lane holds per-attribute
// state for every attribute, and the collector adds only its tuple body and
// its seal.
//
// Per lane, SPL and SMP shift each attribute's field into a byte-aligned,
// zero-padded row, check it with that attribute's fo::WireDecoder::Validate
// and stage it into the attribute's fo::Aggregator (AccumulateFrame), whose
// bitsliced AccumulateWireBlock kernel decodes it (SMP feeds only the
// sampled attribute's). The fake-data solutions accumulate straight into a
// flat support-count matrix — the same counts their StreamAggregators keep
// — so sealing estimates via FakeData::EstimateFromSupportCounts. Ingest
// is all-or-nothing: a malformed tuple is rejected without side effects
// (SPL validates every attribute's row before staging any). As with the
// scalar Collector, sealed results depend only on the multiset of accepted
// tuples, never on lane assignment, chunking or thread count.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "serve/collector.h"
#include "serve/lanes.h"
#include "serve/multidim_wire.h"

namespace ldpr::serve {

/// Immutable per-epoch estimate of a multidimensional collection round.
struct MultidimSnapshot {
  long long epoch = -1;
  long long n = 0;  ///< accepted tuples
  std::vector<std::vector<double>> estimates;  ///< per-attribute frequencies
  IngestStats stats;
  /// Realized budget of this epoch's accepted tuples (every tuple charged
  /// fresh — the multidim front-end has no replay classification yet). SPL
  /// splits the budget over all d attributes, SMP charges the sampled one,
  /// and the fake-data kinds charge each attribute its *expected* exposure
  /// n/d at the amplified budget eps' = ln(d (e^eps - 1) + 1) — what an
  /// attacker who uncovers sampled attributes (Section 3.3) can exploit.
  privacy::LedgerReport ledger;
  /// Sequential composition over every epoch sealed so far, this included.
  privacy::LedgerReport cumulative_ledger;
};

class MultidimCollector final : public IngestSink {
 public:
  /// The solution object must outlive the collector. `options.consistency`
  /// is unused here (the multidim estimators are already unbiased per
  /// attribute; post-processing stays a caller concern).
  MultidimCollector(const multidim::Spl& spl,
                    const CollectorOptions& options = {});
  MultidimCollector(const multidim::Smp& smp,
                    const CollectorOptions& options = {});
  /// RS+FD / RS+RFD: every attribute must carry the same payload, since
  /// the fake-data wire format has no per-attribute layout; an adaptive
  /// solution whose choices mix GRR and UE is rejected.
  MultidimCollector(const multidim::FakeData& fd,
                    const CollectorOptions& options = {});

  ~MultidimCollector() override;  // LaneState is incomplete here

  /// Decodes one wire-encoded tuple into lane `request.lane % lanes()`.
  /// Thread-safe; a malformed tuple is rejected kMalformed (counted, no
  /// accumulation). The multidim front-end has no replay classification
  /// yet, so request.user is accepted unclassified.
  IngestResult Ingest(const IngestRequest& request) override;

  /// Ingests every request of `source` (LaneSet::IngestAll) with the
  /// result Ingest would give each; a racing Seal waits for at most the run
  /// of same-lane requests in progress.
  void IngestAll(IngestSource& source) override;

  /// Merges every lane, estimates per-attribute frequencies, freezes the
  /// ingest stats and resets the lanes for the next epoch. O(lanes * sum k_j)
  /// regardless of the number of tuples ingested.
  MultidimSnapshot Seal();

  int lanes() const { return lanes_.size(); }
  int d() const { return static_cast<int>(domain_sizes_.size()); }
  const std::vector<int>& domain_sizes() const { return domain_sizes_; }

 private:
  enum class Kind { kSpl, kSmp, kFd };

  struct LaneState;
  using Lane = serve::Lane<LaneState>;

  MultidimCollector(Kind kind, std::vector<int> domain_sizes);
  /// SPL/SMP: attribute j's oracle.
  const fo::FrequencyOracle& oracle(int j) const;
  /// Lays out the fields, rows and columns, then builds the lanes.
  void Init(int lanes);
  int tuple_bits() const { return field_offsets_.back(); }
  /// The one validate -> accumulate body behind Ingest and IngestAll.
  /// Caller holds the lane mutex.
  IngestResult IngestLocked(Lane& lane, std::span<const std::uint8_t> frame);
  bool IngestSpl(Lane& lane, const std::uint8_t* data, std::size_t size);
  bool IngestSmp(Lane& lane, const std::uint8_t* data, std::size_t size);
  bool IngestFd(Lane& lane, const std::uint8_t* data, std::size_t size);
  /// Shifts attribute j's field, starting at bit `bit_offset` of `data`,
  /// into the lane's row j and returns the row: the field's standalone
  /// serializer image whenever the field is valid.
  std::span<const std::uint8_t> FieldRow(Lane& lane, const std::uint8_t* data,
                                         int bit_offset, int j) const;
  /// Builds the eps report for `n` tuples with `attr_n[j]` surveys charged
  /// to attribute j (SPL/SMP; FD kinds use the expected-exposure closed
  /// form and ignore attr_n).
  privacy::LedgerReport MakeLedger(long long n,
                                   const std::vector<long long>& attr_n) const;

  Kind kind_;
  const multidim::Spl* spl_ = nullptr;
  const multidim::Smp* smp_ = nullptr;
  const multidim::FakeData* fd_ = nullptr;

  std::vector<int> domain_sizes_;
  bool ue_variant_ = false;         ///< FD kinds: unary-encoded payloads
  int attr_width_ = 0;              ///< SMP attribute-index width
  /// Per-attribute field widths: the report (fo::SerializedReportBits) for
  /// SPL/SMP, the GRR value or the k_j-bit vector for the FD kinds.
  std::vector<int> field_bits_;
  /// SPL / FD: bit offset of each attribute's field in the tuple; back() is
  /// the whole tuple's width.
  std::vector<int> field_offsets_;
  /// FD: first cell of each attribute's column in a lane's flat count
  /// array; back() is the number of cells.
  std::vector<int> columns_;
  /// Byte offset of each attribute's row in a lane's row buffer.
  std::vector<std::size_t> row_offsets_;
  LaneSet<LaneState> lanes_;
  long long next_epoch_ = 0;
  double opened_at_ = 0.0;
  /// Cumulative ledger tallies, integer until report time.
  long long cumulative_n_ = 0;
  std::vector<long long> cumulative_attr_n_;
};

}  // namespace ldpr::serve

#endif  // LDPR_SERVE_MULTIDIM_COLLECTOR_H_
