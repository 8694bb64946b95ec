#ifndef LDPR_DATA_DATASET_H_
#define LDPR_DATA_DATASET_H_

#include <string>
#include <vector>

#include "core/rng.h"

namespace ldpr::data {

/// Columnar multidimensional categorical dataset.
///
/// Mirrors the paper's setting: n users, d attributes A_1..A_d, attribute j
/// taking values in {0, ..., k_j - 1}. Storage is column-major because the
/// estimation and attack pipelines operate one attribute at a time.
///
/// Alongside the columns the dataset keeps one count vector per attribute,
/// updated by AddRecord (the only way records enter a dataset). Counts are
/// written only while the dataset is built and are read-only afterwards, so
/// concurrent readers of a finished dataset need no lock.
class Dataset {
 public:
  /// Creates an empty dataset with the given per-attribute domain sizes
  /// (each k_j >= 2) and optional attribute names.
  explicit Dataset(std::vector<int> domain_sizes,
                   std::vector<std::string> attribute_names = {});

  /// Appends one record; values[j] must lie in [0, k_j). A record that
  /// fails validation throws and leaves the dataset (and its counts)
  /// unchanged.
  void AddRecord(const std::vector<int>& values);

  /// Reserves capacity for n records.
  void Reserve(int n);

  int n() const { return n_; }
  int d() const { return static_cast<int>(domain_sizes_.size()); }
  const std::vector<int>& domain_sizes() const { return domain_sizes_; }
  int domain_size(int attribute) const;
  const std::string& attribute_name(int attribute) const;

  /// Value of attribute `attribute` for user `user`.
  int value(int user, int attribute) const;

  /// Full record of user `user` (one value per attribute).
  std::vector<int> Record(int user) const;

  /// Read-only access to one attribute column.
  const std::vector<int>& Column(int attribute) const;

  /// Per-attribute value counts: Counts()[j][v] is the number of records
  /// with attribute j equal to v. Kept as records are added; O(1).
  const std::vector<std::vector<long long>>& Counts() const { return counts_; }

  /// Empirical marginal distribution of each attribute
  /// (the ground-truth frequencies the LDP estimators target). Computed
  /// from Counts() in O(sum_j k_j), with no pass over the users; bit-
  /// identical to EmpiricalFrequency(Column(j), k_j).
  std::vector<std::vector<double>> Marginals() const;

  /// New dataset containing only the given attributes (in the given order).
  Dataset Project(const std::vector<int>& attributes) const;

  /// New dataset containing a uniform random subsample of `m` records.
  Dataset Subsample(int m, Rng& rng) const;

 private:
  std::vector<int> domain_sizes_;
  std::vector<std::string> attribute_names_;
  std::vector<std::vector<int>> columns_;
  std::vector<std::vector<long long>> counts_;
  int n_ = 0;
};

}  // namespace ldpr::data

#endif  // LDPR_DATA_DATASET_H_
