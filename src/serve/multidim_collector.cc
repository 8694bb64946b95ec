#include "serve/multidim_collector.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <new>

#include "fo/bitslice.h"
#include "fo/wire.h"

namespace ldpr::serve {

namespace {

struct FreeDelete {
  void operator()(void* p) const { std::free(p); }
};

/// A zeroed heap array on cache lines of its own: 64-byte aligned and
/// rounded up to whole lines, so the per-tuple writes of one lane never
/// share a line with another lane's state.
template <typename T>
using LineArray = std::unique_ptr<T[], FreeDelete>;

template <typename T>
LineArray<T> MakeLineArray(std::size_t count) {
  const std::size_t bytes =
      std::max<std::size_t>((count * sizeof(T) + 63) / 64 * 64, 64);
  void* raw = std::aligned_alloc(64, bytes);
  if (raw == nullptr) throw std::bad_alloc();
  std::memset(raw, 0, bytes);
  return LineArray<T>(static_cast<T*>(raw));
}

/// Copies the `bits`-bit MSB-first field at bit `offset` of `src` into the
/// byte-aligned `dst` (ceil(bits / 8) bytes, final padding bits zero),
/// reading only the bytes of `src` the field occupies.
void CopyField(const std::uint8_t* src, int offset, int bits,
               std::uint8_t* dst) {
  const std::uint8_t* p = src + (offset >> 3);
  const int shift = offset & 7;
  const int bytes = (bits + 7) / 8;
  if (shift == 0) {
    std::memcpy(dst, p, static_cast<std::size_t>(bytes));
  } else {
    const int src_bytes = (shift + bits + 7) / 8;
    for (int i = 0; i < bytes; ++i) {
      unsigned v = static_cast<unsigned>(p[i]) << shift;
      if (i + 1 < src_bytes) v |= p[i + 1] >> (8 - shift);
      dst[i] = static_cast<std::uint8_t>(v);
    }
  }
  const int padding = bytes * 8 - bits;
  if (padding > 0) {
    dst[bytes - 1] &= static_cast<std::uint8_t>(0xFFu << padding);
  }
}

}  // namespace

/// A lane's own state (serve::Lane adds the mutex and tallies, whose
/// reports are the lane's accepted n). The per-tuple rows and counts sit on
/// cache lines of their own too (LineArray).
struct MultidimCollector::LaneState {
  /// SPL/SMP: one aggregator + wire decoder per attribute; each aggregator
  /// lives as long as its lane (Seal resets it).
  std::vector<std::unique_ptr<fo::Aggregator>> per_attribute;
  std::vector<fo::WireDecoder> decoders;
  /// SPL/SMP: each attribute's field row (row_offsets_ layout); FD: the
  /// tuple copy GRR values are extracted from (the tuple fits in the rows,
  /// which are followed by fo::bitslice::kRowTailSlack bytes).
  LineArray<std::uint8_t> rows;
  /// RS+FD / RS+RFD: the support-count matrix of FakeData's StreamAggregator,
  /// flat: attribute j's column starts at cell columns_[j].
  LineArray<long long> counts;
};
MultidimCollector::~MultidimCollector() = default;

MultidimCollector::MultidimCollector(Kind kind, std::vector<int> domain_sizes)
    : kind_(kind),
      domain_sizes_(std::move(domain_sizes)),
      opened_at_(MonotonicSeconds()),
      cumulative_attr_n_(domain_sizes_.size(), 0) {}

MultidimCollector::MultidimCollector(const multidim::Spl& spl,
                                     const CollectorOptions& options)
    : MultidimCollector(Kind::kSpl, spl.domain_sizes()) {
  spl_ = &spl;
  Init(options.lanes);
}

MultidimCollector::MultidimCollector(const multidim::Smp& smp,
                                     const CollectorOptions& options)
    : MultidimCollector(Kind::kSmp, smp.domain_sizes()) {
  smp_ = &smp;
  attr_width_ = fo::CeilLog2(smp.d());
  Init(options.lanes);
}

MultidimCollector::MultidimCollector(const multidim::FakeData& fd,
                                     const CollectorOptions& options)
    : MultidimCollector(Kind::kFd, fd.domain_sizes()) {
  fd_ = &fd;
  ue_variant_ = fd.column(0).payload != multidim::FakePayload::kGrr;
  for (int j = 0; j < d(); ++j) {
    LDPR_REQUIRE((fd.column(j).payload != multidim::FakePayload::kGrr) ==
                     ue_variant_,
                 "the fake-data wire format needs one payload for every "
                 "attribute");
  }
  Init(options.lanes);
}

const fo::FrequencyOracle& MultidimCollector::oracle(int j) const {
  return kind_ == Kind::kSpl ? spl_->oracle(j) : smp_->oracle(j);
}

void MultidimCollector::Init(int lanes) {
  const bool fd = kind_ == Kind::kFd;
  field_offsets_.assign(1, 0);
  row_offsets_.assign(1, 0);
  if (fd) columns_.assign(1, 0);
  for (int j = 0; j < d(); ++j) {
    const int k = domain_sizes_[j];
    const int bits = !fd         ? fo::SerializedReportBits(oracle(j))
                     : ue_variant_ ? k
                                   : fo::CeilLog2(k);
    field_bits_.push_back(bits);
    field_offsets_.push_back(field_offsets_.back() + bits);
    row_offsets_.push_back(row_offsets_.back() +
                           static_cast<std::size_t>(bits + 7) / 8);
    // Columns in wire order: for the UE variants cell c is tuple bit c.
    if (fd) columns_.push_back(columns_.back() + k);
  }

  lanes_ = LaneSet<LaneState>(lanes, [&] {
    auto lane = std::make_unique<Lane>();
    // Tail slack for the FD kinds' word-wide field extraction
    // (fo::bitslice::ExtractBits) from the tuple copy.
    lane->rows = MakeLineArray<std::uint8_t>(row_offsets_.back() +
                                             fo::bitslice::kRowTailSlack);
    if (fd) {
      lane->counts = MakeLineArray<long long>(columns_.back());
    } else {
      lane->per_attribute.reserve(d());
      lane->decoders.reserve(d());
      for (int j = 0; j < d(); ++j) {
        lane->per_attribute.push_back(oracle(j).MakeAggregator());
        lane->decoders.emplace_back(oracle(j));
      }
    }
    return lane;
  });
}

IngestResult MultidimCollector::Ingest(const IngestRequest& request) {
  return lanes_.Ingest(request, [this](Lane& lane, const IngestRequest& r) {
    return IngestLocked(lane, r.frame);
  });
}

void MultidimCollector::IngestAll(IngestSource& source) {
  lanes_.IngestAll(source, [this](Lane& lane, const IngestRequest& r) {
    return IngestLocked(lane, r.frame);
  });
}

IngestResult MultidimCollector::IngestLocked(
    Lane& lane, std::span<const std::uint8_t> frame) {
  const std::uint8_t* data = frame.data();
  const std::size_t size = frame.size();
  const bool accepted = kind_ == Kind::kSpl   ? IngestSpl(lane, data, size)
                        : kind_ == Kind::kSmp ? IngestSmp(lane, data, size)
                                              : IngestFd(lane, data, size);
  return accepted ? lane.Accept(size) : lane.Reject(RejectReason::kMalformed);
}

std::span<const std::uint8_t> MultidimCollector::FieldRow(
    Lane& lane, const std::uint8_t* data, int bit_offset, int j) const {
  std::uint8_t* row = lane.rows.get() + row_offsets_[j];
  CopyField(data, bit_offset, field_bits_[j], row);
  return {row, row_offsets_[j + 1] - row_offsets_[j]};
}

bool MultidimCollector::IngestSpl(Lane& lane, const std::uint8_t* data,
                                  std::size_t size) {
  if (!fo::ExactWireSize({data, size}, tuple_bits())) return false;
  // Validate every attribute's row before staging any.
  for (int j = 0; j < d(); ++j) {
    if (!lane.decoders[j].Validate(
            FieldRow(lane, data, field_offsets_[j], j))) {
      return false;
    }
  }
  for (int j = 0; j < d(); ++j) {
    lane.per_attribute[j]->AccumulateFrame(
        {lane.rows.get() + row_offsets_[j],
         row_offsets_[j + 1] - row_offsets_[j]});
  }
  return true;
}

bool MultidimCollector::IngestSmp(Lane& lane, const std::uint8_t* data,
                                  std::size_t size) {
  // The attribute index determines the tuple's width. Widths compare in
  // 64-bit so absurdly large buffers reject cleanly instead of overflowing
  // the bit count.
  if (data == nullptr ||
      size * 8ull < static_cast<unsigned long long>(attr_width_)) {
    return false;
  }
  const int attribute =
      static_cast<int>(fo::BitCursor{data}.Read(attr_width_));
  if (attribute >= d() ||
      !fo::ExactWireSize({data, size}, attr_width_ + field_bits_[attribute])) {
    return false;
  }
  const std::span<const std::uint8_t> row =
      FieldRow(lane, data, attr_width_, attribute);
  if (!lane.decoders[attribute].Validate(row)) return false;
  lane.per_attribute[attribute]->AccumulateFrame(row);
  return true;
}

bool MultidimCollector::IngestFd(Lane& lane, const std::uint8_t* data,
                                 std::size_t size) {
  if (!fo::ExactWireSize({data, size}, tuple_bits())) return false;
  long long* counts = lane.counts.get();
  if (ue_variant_) {
    // Every bit pattern is a valid UE tuple, and tuple bit c is the support
    // bit of cell c.
    for (int c = 0; c < tuple_bits(); ++c) {
      counts[c] += (data[c >> 3] >> (7 - (c & 7))) & 1;
    }
    return true;
  }
  // GRR values: word-wide extraction from a padded copy of the tuple.
  std::uint8_t* tuple = lane.rows.get();
  std::memcpy(tuple, data, size);
  for (int j = 0; j < d(); ++j) {
    const int value = static_cast<int>(
        fo::bitslice::ExtractBits(tuple, field_offsets_[j], field_bits_[j]));
    if (value >= domain_sizes_[j]) {
      // All-or-nothing: take back the columns this tuple already counted.
      for (int i = 0; i < j; ++i) {
        --counts[columns_[i] + static_cast<int>(fo::bitslice::ExtractBits(
                                   tuple, field_offsets_[i], field_bits_[i]))];
      }
      return false;
    }
    ++counts[columns_[j] + value];
  }
  return true;
}

MultidimSnapshot MultidimCollector::Seal() {
  const double now = MonotonicSeconds();
  const double seconds = now - opened_at_;
  opened_at_ = now;
  MultidimSnapshot snapshot;
  snapshot.epoch = next_epoch_++;

  const bool fd = kind_ == Kind::kFd;
  std::vector<std::unique_ptr<fo::Aggregator>> merged;  // SPL/SMP
  std::vector<std::vector<long long>> counts(d());      // FD kinds
  for (int j = 0; j < d(); ++j) {
    if (fd) {
      counts[j].assign(domain_sizes_[j], 0);
    } else {
      merged.push_back(oracle(j).MakeAggregator());
    }
  }
  const IngestCounters tallies = lanes_.Drain([&](Lane& lane) {
    if (!fd) {
      for (int j = 0; j < d(); ++j) {
        merged[j]->Merge(*lane.per_attribute[j]);
        lane.per_attribute[j]->Reset();
      }
      return;
    }
    for (int j = 0; j < d(); ++j) {
      for (int v = 0; v < domain_sizes_[j]; ++v) {
        counts[j][v] += lane.counts[columns_[j] + v];
      }
    }
    std::memset(lane.counts.get(), 0,
                static_cast<std::size_t>(columns_.back()) * sizeof(long long));
  });
  snapshot.n = tallies.reports;

  std::vector<long long> attr_n(d(), 0);
  if (!fd) {
    for (int j = 0; j < d(); ++j) {
      // SPL randomizes every attribute per tuple; SMP only the sampled one.
      attr_n[j] = kind_ == Kind::kSpl ? snapshot.n : merged[j]->n();
    }
    if (snapshot.n > 0) {
      snapshot.estimates.resize(d());
      for (int j = 0; j < d(); ++j) {
        if (merged[j]->n() == 0) {
          // No user sampled this attribute (SMP); best unbiased guess is
          // uniform — mirrors Smp::StreamAggregator::Estimate.
          snapshot.estimates[j].assign(domain_sizes_[j],
                                       1.0 / domain_sizes_[j]);
        } else {
          snapshot.estimates[j] = merged[j]->Estimate();
        }
      }
    }
  } else if (snapshot.n > 0) {
    snapshot.estimates = fd_->EstimateFromSupportCounts(counts, snapshot.n);
  }

  snapshot.stats = IngestStats::From(tallies, seconds);

  cumulative_n_ += snapshot.n;
  for (int j = 0; j < d(); ++j) cumulative_attr_n_[j] += attr_n[j];
  snapshot.ledger = MakeLedger(snapshot.n, attr_n);
  snapshot.cumulative_ledger = MakeLedger(cumulative_n_, cumulative_attr_n_);
  return snapshot;
}

privacy::LedgerReport MultidimCollector::MakeLedger(
    long long n, const std::vector<long long>& attr_n) const {
  privacy::LedgerReport report;
  switch (kind_) {
    case Kind::kSpl: {
      privacy::Accountant ledger(d());
      ledger.RecordSplBulk(spl_->per_attribute_epsilon() * d(), n);
      report = ledger.MakeReport();
      report.fresh = n;  // surveys, not per-attribute randomizations
      break;
    }
    case Kind::kSmp: {
      privacy::Accountant ledger(d());
      for (int j = 0; j < d(); ++j) {
        ledger.RecordSmpBulk(j, smp_->epsilon(), attr_n[j]);
      }
      report = ledger.MakeReport();
      break;
    }
    case Kind::kFd: {
      // The sampled attribute is hidden on the wire, so per-attribute
      // exposure is the expectation: n/d surveys sampled attribute j, each
      // randomized at the amplified budget.
      const double amplified = fd_->amplified_epsilon();
      report.total_epsilon = static_cast<double>(n) * fd_->epsilon();
      const double expected =
          static_cast<double>(n) / static_cast<double>(d()) * amplified;
      report.per_attribute.assign(d(), expected);
      report.worst_attribute_epsilon = expected;
      if (n > 0) report.amplified_epsilon = amplified;
      report.fresh = n;
      break;
    }
  }
  return report;
}

}  // namespace ldpr::serve
