#include "nn/train.hpp"

#include <algorithm>
#include <cmath>

#include "nn/kernels/kernels.hpp"
#include "util/contracts.hpp"
#include "util/math.hpp"

namespace imx::nn {

double cross_entropy(const Tensor& logits, int label, Tensor& grad) {
    IMX_EXPECTS(label >= 0 && label < logits.numel());
    std::vector<double> probs(static_cast<std::size_t>(logits.numel()));
    for (std::int64_t i = 0; i < logits.numel(); ++i) {
        probs[static_cast<std::size_t>(i)] = static_cast<double>(logits[i]);
    }
    util::softmax_inplace(probs);
    grad = Tensor(logits.shape());
    for (std::int64_t i = 0; i < logits.numel(); ++i) {
        grad[i] = static_cast<float>(probs[static_cast<std::size_t>(i)]);
    }
    grad[label] -= 1.0F;
    const double p = std::max(probs[static_cast<std::size_t>(label)], 1e-12);
    return -std::log(p);
}

std::vector<double> softmax_probs(const Tensor& logits) {
    std::vector<double> probs(static_cast<std::size_t>(logits.numel()));
    for (std::int64_t i = 0; i < logits.numel(); ++i) {
        probs[static_cast<std::size_t>(i)] = static_cast<double>(logits[i]);
    }
    util::softmax_inplace(probs);
    return probs;
}

Sgd::Sgd(float lr, float momentum, float weight_decay)
    : lr_(lr), momentum_(momentum), weight_decay_(weight_decay) {
    IMX_EXPECTS(lr > 0.0F);
    IMX_EXPECTS(momentum >= 0.0F && momentum < 1.0F);
    IMX_EXPECTS(weight_decay >= 0.0F);
}

void Sgd::step(const std::vector<Tensor*>& params,
               const std::vector<Tensor*>& grads, float scale) {
    IMX_EXPECTS(params.size() == grads.size());
    if (velocity_.size() != params.size()) {
        velocity_.clear();
        velocity_.reserve(params.size());
        for (const Tensor* p : params) velocity_.emplace_back(Tensor::zeros(p->shape()));
    }
    for (std::size_t i = 0; i < params.size(); ++i) {
        Tensor& p = *params[i];
        const Tensor& g = *grads[i];
        Tensor& v = velocity_[i];
        IMX_EXPECTS(p.numel() == g.numel());
        for (std::int64_t j = 0; j < p.numel(); ++j) {
            const float grad_j = g[j] * scale + weight_decay_ * p[j];
            v[j] = momentum_ * v[j] + grad_j;
            p[j] -= lr_ * v[j];
        }
    }
}

Adam::Adam(float lr, float beta1, float beta2, float eps)
    : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {
    IMX_EXPECTS(lr > 0.0F);
    IMX_EXPECTS(beta1 >= 0.0F && beta1 < 1.0F);
    IMX_EXPECTS(beta2 >= 0.0F && beta2 < 1.0F);
    IMX_EXPECTS(eps > 0.0F);
}

void Adam::step(const std::vector<Tensor*>& params,
                const std::vector<Tensor*>& grads, float scale) {
    IMX_EXPECTS(params.size() == grads.size());
    if (m_.size() != params.size()) {
        m_.clear();
        v_.clear();
        for (const Tensor* p : params) {
            m_.emplace_back(Tensor::zeros(p->shape()));
            v_.emplace_back(Tensor::zeros(p->shape()));
        }
        t_ = 0;
    }
    ++t_;
    const float bc1 = 1.0F - std::pow(beta1_, static_cast<float>(t_));
    const float bc2 = 1.0F - std::pow(beta2_, static_cast<float>(t_));
    const kernels::AdamStep step{lr_, beta1_, beta2_, eps_, bc1, bc2, scale};
    for (std::size_t i = 0; i < params.size(); ++i) {
        const std::int64_t n = params[i]->numel();
        IMX_EXPECTS(grads[i]->numel() == n && m_[i].numel() == n);
        kernels::adam_update(step, n, params[i]->data(), grads[i]->data(),
                             m_[i].data(), v_[i].data());
    }
}

std::vector<EpochStats> train_multi_exit(ExitGraph& graph,
                                         const std::vector<Tensor>& images,
                                         const std::vector<int>& labels,
                                         const TrainConfig& config) {
    IMX_EXPECTS(images.size() == labels.size());
    IMX_EXPECTS(!images.empty());
    IMX_EXPECTS(config.epochs > 0 && config.batch_size > 0);

    const int m = graph.num_exits();
    std::vector<double> weights = config.exit_loss_weights;
    if (weights.empty()) weights.assign(static_cast<std::size_t>(m), 1.0);
    IMX_EXPECTS(static_cast<int>(weights.size()) == m);

    Sgd optimizer(config.lr, config.momentum, config.weight_decay);
    std::vector<EpochStats> history;
    util::Rng order_rng(0xdecaf);

    std::vector<std::size_t> order(images.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

    for (int epoch = 0; epoch < config.epochs; ++epoch) {
        order_rng.shuffle(order);
        double loss_sum = 0.0;
        std::vector<std::int64_t> correct(static_cast<std::size_t>(m), 0);
        std::size_t seen = 0;

        std::size_t cursor = 0;
        while (cursor < order.size()) {
            const std::size_t batch_end =
                std::min(cursor + static_cast<std::size_t>(config.batch_size),
                         order.size());
            graph.zero_grad();
            int batch_count = 0;
            for (; cursor < batch_end; ++cursor) {
                const std::size_t idx = order[cursor];
                std::vector<Tensor> logits = graph.forward_all(images[idx]);
                std::vector<Tensor> grad_logits(logits.size());
                for (int e = 0; e < m; ++e) {
                    Tensor grad;
                    const double loss = cross_entropy(
                        logits[static_cast<std::size_t>(e)], labels[idx], grad);
                    loss_sum += weights[static_cast<std::size_t>(e)] * loss;
                    grad_logits[static_cast<std::size_t>(e)] = std::move(grad);
                    const auto& lv = logits[static_cast<std::size_t>(e)].storage();
                    const auto pred = static_cast<int>(std::distance(
                        lv.begin(), std::max_element(lv.begin(), lv.end())));
                    if (pred == labels[idx]) {
                        ++correct[static_cast<std::size_t>(e)];
                    }
                }
                graph.backward_all(grad_logits, weights);
                ++batch_count;
                ++seen;
            }
            optimizer.step(graph.parameters(), graph.gradients(),
                           1.0F / static_cast<float>(batch_count));
        }

        EpochStats stats;
        stats.mean_loss = loss_sum / (static_cast<double>(seen) * m);
        for (int e = 0; e < m; ++e) {
            stats.exit_accuracy.push_back(
                static_cast<double>(correct[static_cast<std::size_t>(e)]) /
                static_cast<double>(seen));
        }
        history.push_back(std::move(stats));
    }
    return history;
}

std::vector<double> evaluate_exits(ExitGraph& graph,
                                   const std::vector<Tensor>& images,
                                   const std::vector<int>& labels) {
    IMX_EXPECTS(images.size() == labels.size());
    IMX_EXPECTS(!images.empty());
    const int m = graph.num_exits();
    std::vector<std::int64_t> correct(static_cast<std::size_t>(m), 0);
    for (std::size_t i = 0; i < images.size(); ++i) {
        std::vector<Tensor> logits = graph.forward_all(images[i]);
        for (int e = 0; e < m; ++e) {
            const auto& lv = logits[static_cast<std::size_t>(e)].storage();
            const auto pred = static_cast<int>(
                std::distance(lv.begin(), std::max_element(lv.begin(), lv.end())));
            if (pred == labels[i]) ++correct[static_cast<std::size_t>(e)];
        }
    }
    std::vector<double> acc;
    acc.reserve(static_cast<std::size_t>(m));
    for (int e = 0; e < m; ++e) {
        acc.push_back(static_cast<double>(correct[static_cast<std::size_t>(e)]) /
                      static_cast<double>(images.size()));
    }
    return acc;
}

}  // namespace imx::nn
