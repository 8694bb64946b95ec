#include "data/dataset.h"

#include "core/check.h"

namespace ldpr::data {

Dataset::Dataset(std::vector<int> domain_sizes,
                 std::vector<std::string> attribute_names)
    : domain_sizes_(std::move(domain_sizes)),
      attribute_names_(std::move(attribute_names)) {
  LDPR_REQUIRE(!domain_sizes_.empty(), "Dataset requires at least 1 attribute");
  for (std::size_t j = 0; j < domain_sizes_.size(); ++j) {
    LDPR_REQUIRE(domain_sizes_[j] >= 2, "attribute " << j
                                                     << " needs domain size >= 2");
  }
  if (attribute_names_.empty()) {
    attribute_names_.reserve(domain_sizes_.size());
    for (std::size_t j = 0; j < domain_sizes_.size(); ++j) {
      // Append instead of operator+(const char*, string&&): the latter trips
      // a GCC 12 -Wrestrict false positive (GCC bug 105329) under -O2.
      std::string name = "A";
      name += std::to_string(j);
      attribute_names_.push_back(std::move(name));
    }
  }
  LDPR_REQUIRE(attribute_names_.size() == domain_sizes_.size(),
               "attribute_names must match domain_sizes in length");
  columns_.resize(domain_sizes_.size());
  counts_.resize(domain_sizes_.size());
  for (std::size_t j = 0; j < domain_sizes_.size(); ++j) {
    counts_[j].assign(domain_sizes_[j], 0);
  }
}

void Dataset::AddRecord(const std::vector<int>& values) {
  LDPR_REQUIRE(static_cast<int>(values.size()) == d(),
               "record has " << values.size() << " values, expected " << d());
  for (int j = 0; j < d(); ++j) {
    LDPR_REQUIRE(values[j] >= 0 && values[j] < domain_sizes_[j],
                 "attribute " << j << " value " << values[j]
                              << " outside [0, " << domain_sizes_[j] << ")");
  }
  for (int j = 0; j < d(); ++j) {
    columns_[j].push_back(values[j]);
    ++counts_[j][values[j]];
  }
  ++n_;
}

void Dataset::Reserve(int n) {
  for (auto& col : columns_) col.reserve(n);
}

int Dataset::domain_size(int attribute) const {
  LDPR_REQUIRE(attribute >= 0 && attribute < d(), "attribute out of range");
  return domain_sizes_[attribute];
}

const std::string& Dataset::attribute_name(int attribute) const {
  LDPR_REQUIRE(attribute >= 0 && attribute < d(), "attribute out of range");
  return attribute_names_[attribute];
}

int Dataset::value(int user, int attribute) const {
  LDPR_REQUIRE(user >= 0 && user < n_, "user index out of range");
  LDPR_REQUIRE(attribute >= 0 && attribute < d(), "attribute out of range");
  return columns_[attribute][user];
}

std::vector<int> Dataset::Record(int user) const {
  LDPR_REQUIRE(user >= 0 && user < n_, "user index out of range");
  std::vector<int> rec(d());
  for (int j = 0; j < d(); ++j) rec[j] = columns_[j][user];
  return rec;
}

const std::vector<int>& Dataset::Column(int attribute) const {
  LDPR_REQUIRE(attribute >= 0 && attribute < d(), "attribute out of range");
  return columns_[attribute];
}

std::vector<std::vector<double>> Dataset::Marginals() const {
  LDPR_REQUIRE(n_ > 0, "Marginals requires a non-empty dataset");
  // Same long long -> double division as EmpiricalFrequency, so the result
  // is bit-identical to a recount of each column.
  const double n = static_cast<double>(n_);
  std::vector<std::vector<double>> out(d());
  for (int j = 0; j < d(); ++j) {
    out[j].resize(counts_[j].size());
    for (std::size_t v = 0; v < counts_[j].size(); ++v) {
      out[j][v] = static_cast<double>(counts_[j][v]) / n;
    }
  }
  return out;
}

Dataset Dataset::Project(const std::vector<int>& attributes) const {
  LDPR_REQUIRE(!attributes.empty(), "Project requires at least one attribute");
  std::vector<int> sizes;
  std::vector<std::string> names;
  for (int a : attributes) {
    LDPR_REQUIRE(a >= 0 && a < d(), "attribute " << a << " out of range");
    sizes.push_back(domain_sizes_[a]);
    names.push_back(attribute_names_[a]);
  }
  Dataset out(std::move(sizes), std::move(names));
  out.Reserve(n_);
  std::vector<int> rec(attributes.size());
  for (int i = 0; i < n_; ++i) {
    for (std::size_t j = 0; j < attributes.size(); ++j) {
      rec[j] = columns_[attributes[j]][i];
    }
    out.AddRecord(rec);
  }
  return out;
}

Dataset Dataset::Subsample(int m, Rng& rng) const {
  LDPR_REQUIRE(m >= 1 && m <= n_, "Subsample requires 1 <= m <= n");
  std::vector<int> picked = rng.SampleWithoutReplacement(n_, m);
  Dataset out(domain_sizes_, attribute_names_);
  out.Reserve(m);
  for (int i : picked) out.AddRecord(Record(i));
  return out;
}

}  // namespace ldpr::data
