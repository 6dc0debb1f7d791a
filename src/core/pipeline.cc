#include "core/pipeline.h"

#include <utility>

#include "common/stopwatch.h"

namespace frt {

std::string FrequencyRandomizer::name() const {
  const bool global = config_.epsilon_global > 0.0;
  const bool local = config_.epsilon_local > 0.0;
  if (global && local) return "GL";
  if (global) return "PureG";
  if (local) return "PureL";
  return "Identity";
}

Result<Dataset> FrequencyRandomizer::Anonymize(const Dataset& input,
                                               Rng& rng) {
  return AnonymizeOwned(input.Clone(), rng);
}

Result<Dataset> FrequencyRandomizer::AnonymizeOwned(Dataset input, Rng& rng) {
  report_ = RandomizerReport{};
  if (input.empty()) return Status::InvalidArgument("empty dataset");

  // Location identity over the dataset extent.
  BBox region = input.Bounds();
  const double pad =
      std::max(1.0, 0.01 * std::max(region.Width(), region.Height()));
  region.min_x -= pad;
  region.min_y -= pad;
  region.max_x += pad;
  region.max_y += pad;
  Quantizer quantizer(region, config_.snap_levels);
  quantizer.RegisterDataset(input);

  // Signatures (and the candidate set P) come from the original input; both
  // mechanisms rebuild their frequency distributions from whatever dataset
  // they receive, so composition order is exchangeable.
  SignatureExtractor extractor(&quantizer, config_.m);
  FRT_ASSIGN_OR_RETURN(const SignatureSet signatures,
                       extractor.Extract(input));
  report_.candidate_set_size = signatures.candidate_set.size();

  const double total_budget = config_.epsilon_global + config_.epsilon_local;
  PrivacyAccountant accountant(total_budget);

  Dataset current = std::move(input);
  auto run_local = [&]() -> Status {
    if (config_.epsilon_local <= 0.0) return Status::OK();
    LocalMechanismConfig cfg;
    cfg.epsilon = config_.epsilon_local;
    cfg.strategy = config_.strategy;
    cfg.grid_levels = config_.index_levels;
    LocalMechanism mechanism(&quantizer, cfg);
    Stopwatch watch;
    FRT_ASSIGN_OR_RETURN(current,
                         mechanism.Apply(current, signatures, rng,
                                         &accountant, &report_.local));
    report_.local_seconds = watch.ElapsedSeconds();
    return Status::OK();
  };
  auto run_global = [&]() -> Status {
    if (config_.epsilon_global <= 0.0) return Status::OK();
    GlobalMechanismConfig cfg;
    cfg.epsilon = config_.epsilon_global;
    cfg.strategy = config_.strategy;
    cfg.grid_levels = config_.index_levels;
    GlobalMechanism mechanism(&quantizer, cfg);
    Stopwatch watch;
    FRT_ASSIGN_OR_RETURN(current,
                         mechanism.Apply(current, signatures, rng,
                                         &accountant, &report_.global));
    report_.global_seconds = watch.ElapsedSeconds();
    return Status::OK();
  };

  if (config_.order == MechanismOrder::kLocalFirst) {
    FRT_RETURN_IF_ERROR(run_local());
    FRT_RETURN_IF_ERROR(run_global());
  } else {
    FRT_RETURN_IF_ERROR(run_global());
    FRT_RETURN_IF_ERROR(run_local());
  }
  report_.epsilon_spent = accountant.spent();
  return current;
}

}  // namespace frt
