// The Adam optimizer of the DDPG actor/critic updates.
#ifndef IMX_NN_TRAIN_HPP
#define IMX_NN_TRAIN_HPP

#include <cstdint>
#include <vector>

#include "nn/tensor.hpp"

namespace imx::nn {

/// Adam (Kingma & Ba) over flat parameter/gradient lists.
class Adam {
public:
    explicit Adam(float lr, float beta1 = 0.9F, float beta2 = 0.999F,
                  float eps = 1e-8F);

    /// Apply one update using the accumulated gradients (already averaged or
    /// summed by the caller; `scale` multiplies gradients, e.g. 1/batch).
    void step(const std::vector<Tensor*>& params,
              const std::vector<Tensor*>& grads, float scale);

private:
    float lr_;
    float beta1_;
    float beta2_;
    float eps_;
    std::int64_t t_ = 0;
    std::vector<Tensor> m_;
    std::vector<Tensor> v_;
};

}  // namespace imx::nn

#endif  // IMX_NN_TRAIN_HPP
