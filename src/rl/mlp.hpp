// Small fully-connected network used by the DDPG actor and critic.
//
// forward_batch / backward_batch run [batch x features] rows in reused
// member buffers, one kernels::gemm_batch / gemm_backward_batch call per
// layer; the actor's act() is a batch of one. Each sample's output is
// bitwise what a per-sample pass computes for it, and the parameter
// gradients are bitwise the per-sample backward passes accumulated in
// sample order (tests/network_reference.hpp restates that per-sample
// path; PerSampleDdpg in tests/test_ddpg_batch.cpp holds the agent to
// it).
#ifndef IMX_RL_MLP_HPP
#define IMX_RL_MLP_HPP

#include <vector>

#include "nn/tensor.hpp"
#include "util/rng.hpp"

namespace imx::rl {

enum class OutputActivation { kNone, kSigmoid };

class Mlp {
public:
    /// dims = {in, hidden..., out}; hidden layers use ReLU. Each layer's
    /// weight is drawn Kaiming-uniform from `rng` and its bias is zero,
    /// layer by layer.
    Mlp(const std::vector<int>& dims, OutputActivation out_act, util::Rng& rng);

    // parameters() points into layers_, so a copy would alias the source.
    Mlp(const Mlp&) = delete;
    Mlp& operator=(const Mlp&) = delete;
    Mlp(Mlp&&) = default;
    Mlp& operator=(Mlp&&) = default;

    /// Minibatch forward of `batch` row-major input rows of in_features()
    /// floats. Returns the [batch x out_features()] output, valid until the
    /// next forward_batch().
    const float* forward_batch(int batch, const float* input);

    /// Backward through the last forward_batch() from its
    /// [batch x out_features()] output gradient. Accumulates the parameter
    /// gradients when `param_grads`. When `input_grad`, returns the input
    /// gradient's columns [input_grad_first, in_features()) as a
    /// [batch x (in_features() - input_grad_first)] buffer, valid until the
    /// next call (the DDPG actor update reads only the critic's action
    /// columns); else nullptr. Work for an output nobody asked for, or for
    /// an input column before input_grad_first, is skipped.
    const float* backward_batch(const float* grad_output, bool param_grads,
                                bool input_grad, int input_grad_first = 0);

    [[nodiscard]] int in_features() const { return dims_.front(); }
    [[nodiscard]] int out_features() const { return dims_.back(); }

    /// Parameter / matching gradient tensors, in layer order: each layer's
    /// [out x in] weight, then its bias. Built once at construction, so the
    /// optimizer never rebuilds them.
    [[nodiscard]] const std::vector<nn::Tensor*>& parameters() const {
        return params_;
    }
    [[nodiscard]] const std::vector<nn::Tensor*>& gradients() const {
        return grads_;
    }
    void zero_grad();

private:
    /// One fully-connected layer: y = weight * x + bias, weight [out x in].
    struct Layer {
        nn::Tensor weight;
        nn::Tensor bias;
        nn::Tensor grad_weight;
        nn::Tensor grad_bias;
    };

    std::vector<int> dims_;
    OutputActivation out_act_;
    std::vector<Layer> layers_;  ///< layer i maps dims_[i] to dims_[i + 1]
    std::vector<nn::Tensor*> params_;
    std::vector<nn::Tensor*> grads_;

    // Minibatch buffers, grown on demand and reused. acts_[i] holds the
    // [batch x dims_[i]] input of layer i (acts_.back() the output); the
    // activations are applied in place, and ReLU's backward mask is read
    // back from its output (out > 0 exactly when in > 0).
    int batch_ = 0;
    std::vector<std::vector<float>> acts_;
    std::vector<float> grad_cur_;
    std::vector<float> grad_next_;
};

}  // namespace imx::rl

#endif  // IMX_RL_MLP_HPP
