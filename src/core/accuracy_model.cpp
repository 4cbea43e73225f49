#include "core/accuracy_model.hpp"

#include <array>
#include <cmath>
#include <cstring>
#include <mutex>
#include <sstream>
#include <unordered_map>

#include "core/multi_exit_spec.hpp"
#include "util/contracts.hpp"
#include "util/math.hpp"
#include "util/rng.hpp"

namespace imx::core {

namespace {

/// Process-wide calibrate() cache. The pattern search is deterministic in
/// its inputs (24 restarts x 400 iterations, fixed seed), so two models
/// with the same calibration key always fit the same params; sweeps that
/// build one setup per scenario hit this cache after the first scenario.
struct CalibrationResult {
    SensitivityParams params;
    double residual = 0.0;
};

std::mutex& calibration_mutex() {
    static std::mutex m;
    return m;
}

std::unordered_map<std::string, CalibrationResult>& calibration_cache() {
    static std::unordered_map<std::string, CalibrationResult> cache;
    return cache;
}

void append_double_bits(std::string& out, double v) {
    char buf[sizeof(double)];
    std::memcpy(buf, &v, sizeof(double));
    out.append(buf, sizeof(double));
}

/// Normalized quantization harshness: q(8)=0, q(1)=1, convex in between.
double quant_harshness(int bits) {
    IMX_EXPECTS(bits >= 1);
    if (bits >= 8) return 0.0;
    constexpr double kFloor = 1.0 / 128.0;  // 2^-7
    return (std::pow(2.0, 1.0 - bits) - kFloor) / (1.0 - kFloor);
}

/// Built-in depth ranks for the 11-layer paper family (order: Conv1, ConvB1,
/// FC-B1, Conv2, ConvB2, FC-B21, FC-B22, Conv3, Conv4, FC-B31, FC-B32).
std::vector<double> default_depth_ranks() {
    return {0.00, 0.15, 0.30, 0.30, 0.45, 0.55, 0.65, 0.55, 0.70, 0.85, 0.95};
}

}  // namespace

AccuracyModel::AccuracyModel(const compress::NetworkDesc& desc,
                             std::vector<double> base_accuracy_percent,
                             std::vector<double> depth_rank)
    : desc_(&desc),
      base_(std::move(base_accuracy_percent)),
      depth_rank_(std::move(depth_rank)) {
    IMX_EXPECTS(static_cast<int>(base_.size()) == desc.num_exits);
    if (depth_rank_.empty()) depth_rank_ = default_depth_ranks();
    IMX_EXPECTS(depth_rank_.size() == desc.num_layers());
    calibrate();
}

AccuracyModel::AccuracyModel(const compress::NetworkDesc& desc,
                             std::vector<double> base_accuracy_percent,
                             std::vector<double> depth_rank,
                             const SensitivityParams& params)
    : desc_(&desc),
      base_(std::move(base_accuracy_percent)),
      depth_rank_(std::move(depth_rank)),
      params_(params) {
    IMX_EXPECTS(static_cast<int>(base_.size()) == desc.num_exits);
    if (depth_rank_.empty()) depth_rank_ = default_depth_ranks();
    IMX_EXPECTS(depth_rank_.size() == desc.num_layers());
}

double AccuracyModel::survival(const compress::Policy& policy, int exit,
                               const SensitivityParams& p) const {
    double s = 1.0;
    for (const int l : desc_->exit_paths[static_cast<std::size_t>(exit)]) {
        const auto li = static_cast<std::size_t>(l);
        const compress::LayerPolicy& lp = policy[li];
        const double d = depth_rank_[li];
        const bool is_fc = desc_->layers[li].kind == compress::LayerKind::kFc;

        const double sp = p.prune_base * std::exp(-p.prune_decay * d);
        const double sq = p.quant_base * std::exp(-p.quant_decay * d) *
                          (is_fc ? p.fc_quant_factor : 1.0);
        const double sa = p.act_factor * sq;

        const double knee_factor =
            lp.preserve_ratio >= 0.55
                ? 1.0
                : util::sigmoid((lp.preserve_ratio - p.prune_knee) /
                                p.prune_knee_width);
        const double prune_term =
            (1.0 - sp * std::pow(1.0 - lp.preserve_ratio, p.prune_exponent)) *
            knee_factor;
        const double wq_term =
            lp.weight_bits >= 32 ? 1.0 : 1.0 - sq * quant_harshness(lp.weight_bits);
        const double aq_term =
            lp.activation_bits >= 32
                ? 1.0
                : 1.0 - sa * quant_harshness(lp.activation_bits);
        s *= util::clamp(prune_term, 0.0, 1.0) * util::clamp(wq_term, 0.0, 1.0) *
             util::clamp(aq_term, 0.0, 1.0);
    }
    return s;
}

double AccuracyModel::accuracy(const compress::Policy& policy, int exit) const {
    IMX_EXPECTS(exit >= 0 && exit < desc_->num_exits);
    IMX_EXPECTS(policy.size() == desc_->num_layers());
    const double base = base_[static_cast<std::size_t>(exit)];
    return chance_ + (base - chance_) * survival(policy, exit, params_);
}

std::vector<double> AccuracyModel::exit_accuracy(
    const compress::Policy& policy) const {
    std::vector<double> out;
    out.reserve(static_cast<std::size_t>(desc_->num_exits));
    for (int e = 0; e < desc_->num_exits; ++e) out.push_back(accuracy(policy, e));
    return out;
}

std::string AccuracyModel::calibration_key() const {
    std::ostringstream os;
    os << desc_->num_exits << '|' << desc_->num_layers() << '|';
    for (const std::vector<int>& path : desc_->exit_paths) {
        for (const int l : path) os << l << ',';
        os << ';';
    }
    os << '|';
    for (const compress::LayerDesc& l : desc_->layers) {
        os << (l.kind == compress::LayerKind::kFc ? 'f' : 'c');
    }
    std::string key = os.str();
    append_double_bits(key, chance_);
    for (const double b : base_) append_double_bits(key, b);
    key.push_back('|');
    for (const double d : depth_rank_) append_double_bits(key, d);
    return key;
}

void AccuracyModel::calibrate() {
    const std::string cache_key = calibration_key();
    {
        const std::lock_guard<std::mutex> lock(calibration_mutex());
        const auto it = calibration_cache().find(cache_key);
        if (it != calibration_cache().end()) {
            params_ = it->second.params;
            residual_ = it->second.residual;
            return;
        }
    }

    // Anchors: the Fig. 1b uniform and nonuniform accuracies under the
    // corresponding deterministic policies for this network family.
    const compress::Policy uniform = uniform_baseline_policy();
    const compress::Policy nonuniform = reference_nonuniform_policy();
    // Only networks with the 11-layer topology can use the paper anchors;
    // callers with other topologies must pass params explicitly.
    IMX_EXPECTS(desc_->num_layers() == 11 && desc_->num_exits == 3);

    struct Anchor {
        const compress::Policy* policy;
        std::array<double, 3> target;
    };
    const Anchor anchors[] = {
        {&uniform, kPaperUniformAcc},
        {&nonuniform, kPaperNonuniformAcc},
    };

    // Specialized survival evaluation for the fit loop. loss_of runs ~10k
    // times (24 restarts x 400 iterations) and dominated sweep startup, yet
    // most of survival()'s work is invariant across candidates: the two
    // anchor *policies* never change, so each layer's quant_harshness() and
    // knee sigmoid are search constants, and exp(-decay * d) is independent
    // of the policy, so the two anchors can share one evaluation per layer
    // instead of recomputing it per path entry. Every retained expression
    // keeps survival()'s operand order, so the fitted params — and every
    // accuracy value downstream — are bitwise unchanged (pinned by the
    // --quick goldens).
    const std::size_t num_layers = desc_->num_layers();
    struct AnchorPre {
        std::vector<double> one_minus_preserve;
        std::vector<double> knee;    // 1.0 when inactive (alpha >= 0.55)
        std::vector<double> qh_w;    // 0.0 when weight_bits >= 32 or >= 8
        std::vector<double> qh_a;    // 0.0 when activation_bits >= 32 or >= 8
    };
    // The knee parameters are not fitted (see SensitivityParams): every
    // candidate carries the defaults, so the knee factors are precomputable.
    const SensitivityParams knee_ref;
    std::array<AnchorPre, 2> pre;
    for (std::size_t a = 0; a < 2; ++a) {
        const compress::Policy& policy = *anchors[a].policy;
        AnchorPre& ap = pre[a];
        ap.one_minus_preserve.resize(num_layers);
        ap.knee.resize(num_layers);
        ap.qh_w.resize(num_layers);
        ap.qh_a.resize(num_layers);
        for (std::size_t l = 0; l < num_layers; ++l) {
            const compress::LayerPolicy& lp = policy[l];
            ap.one_minus_preserve[l] = 1.0 - lp.preserve_ratio;
            ap.knee[l] = lp.preserve_ratio >= 0.55
                             ? 1.0
                             : util::sigmoid(
                                   (lp.preserve_ratio - knee_ref.prune_knee) /
                                   knee_ref.prune_knee_width);
            // bits >= 32 skipped the quant term entirely (term = 1.0);
            // harshness 0.0 reproduces that bitwise: 1.0 - sq * 0.0 == 1.0.
            ap.qh_w[l] =
                lp.weight_bits >= 32 ? 0.0 : quant_harshness(lp.weight_bits);
            ap.qh_a[l] = lp.activation_bits >= 32
                             ? 0.0
                             : quant_harshness(lp.activation_bits);
        }
    }
    std::vector<char> layer_is_fc(num_layers);
    for (std::size_t l = 0; l < num_layers; ++l) {
        layer_is_fc[l] =
            desc_->layers[l].kind == compress::LayerKind::kFc ? 1 : 0;
    }

    std::vector<double> exp_prune(num_layers);
    std::vector<double> exp_quant(num_layers);
    std::vector<double> factor(num_layers);
    auto loss_of = [&](const SensitivityParams& p) {
        for (std::size_t l = 0; l < num_layers; ++l) {
            const double d = depth_rank_[l];
            exp_prune[l] = std::exp(-p.prune_decay * d);
            exp_quant[l] = std::exp(-p.quant_decay * d);
        }
        double loss = 0.0;
        for (std::size_t a = 0; a < 2; ++a) {
            const AnchorPre& ap = pre[a];
            for (std::size_t l = 0; l < num_layers; ++l) {
                const double sp = p.prune_base * exp_prune[l];
                double sq = p.quant_base * exp_quant[l];
                if (layer_is_fc[l] != 0) sq *= p.fc_quant_factor;
                const double sa = p.act_factor * sq;
                const double prune_term =
                    (1.0 - sp * std::pow(ap.one_minus_preserve[l],
                                         p.prune_exponent)) *
                    ap.knee[l];
                const double wq_term = 1.0 - sq * ap.qh_w[l];
                const double aq_term = 1.0 - sa * ap.qh_a[l];
                factor[l] = util::clamp(prune_term, 0.0, 1.0) *
                            util::clamp(wq_term, 0.0, 1.0) *
                            util::clamp(aq_term, 0.0, 1.0);
            }
            for (int e = 0; e < 3; ++e) {
                double s = 1.0;
                for (const int l :
                     desc_->exit_paths[static_cast<std::size_t>(e)]) {
                    s *= factor[static_cast<std::size_t>(l)];
                }
                const double base = base_[static_cast<std::size_t>(e)];
                const double acc = chance_ + (base - chance_) * s;
                const double err =
                    acc - anchors[a].target[static_cast<std::size_t>(e)];
                loss += err * err;
            }
        }
        return loss;
    };

    // Deterministic random-restart pattern search over the 7 knobs.
    util::Rng rng(0xca11b8a7e);
    SensitivityParams best = params_;
    double best_loss = loss_of(best);
    for (int restart = 0; restart < 24; ++restart) {
        SensitivityParams p;
        p.prune_base = rng.uniform(0.05, 0.8);
        p.prune_decay = rng.uniform(0.0, 3.0);
        p.quant_base = rng.uniform(0.01, 0.25);
        p.quant_decay = rng.uniform(0.0, 3.0);
        p.fc_quant_factor = rng.uniform(0.02, 0.6);
        p.act_factor = rng.uniform(0.05, 0.6);
        p.prune_exponent = rng.uniform(1.0, 2.5);
        double step = 0.5;
        double loss = loss_of(p);
        for (int iter = 0; iter < 400; ++iter) {
            SensitivityParams q = p;
            switch (rng.uniform_int(0, 6)) {
                case 0: q.prune_base *= std::exp(step * rng.normal() * 0.3); break;
                case 1: q.prune_decay += step * rng.normal(); break;
                case 2: q.quant_base *= std::exp(step * rng.normal() * 0.3); break;
                case 3: q.quant_decay += step * rng.normal(); break;
                case 4: q.fc_quant_factor *= std::exp(step * rng.normal() * 0.3); break;
                case 5: q.act_factor *= std::exp(step * rng.normal() * 0.3); break;
                default: q.prune_exponent = util::clamp(
                             q.prune_exponent + step * rng.normal() * 0.5, 1.0, 3.0);
            }
            q.prune_base = util::clamp(q.prune_base, 0.01, 0.95);
            q.quant_base = util::clamp(q.quant_base, 0.005, 0.5);
            q.fc_quant_factor = util::clamp(q.fc_quant_factor, 0.01, 1.0);
            q.act_factor = util::clamp(q.act_factor, 0.01, 1.0);
            q.prune_decay = util::clamp(q.prune_decay, -1.0, 4.0);
            q.quant_decay = util::clamp(q.quant_decay, -1.0, 4.0);
            const double l = loss_of(q);
            if (l < loss) {
                loss = l;
                p = q;
            } else {
                step *= 0.995;
            }
        }
        if (loss < best_loss) {
            best_loss = loss;
            best = p;
        }
    }
    params_ = best;
    residual_ = std::sqrt(best_loss / 6.0);
    {
        const std::lock_guard<std::mutex> lock(calibration_mutex());
        calibration_cache().emplace(cache_key,
                                    CalibrationResult{params_, residual_});
    }
}

}  // namespace imx::core
