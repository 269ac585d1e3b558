#include "support/serve_oracle.h"

#include <algorithm>
#include <cmath>

namespace ark::ref {

std::vector<Complex>
replayServeWorkload(const ServeWorkload &w, std::vector<Complex> msg,
                    const std::vector<std::vector<Complex>> &plaintexts)
{
    const size_t n = msg.size();
    for (const ServeOp &op : w.ops) {
        switch (op.kind) {
          case ServeOpKind::Square:
            for (Complex &x : msg)
                x *= x;
            break;
          case ServeOpKind::Rescale:
            break;
          case ServeOpKind::Rotate: {
            const i64 slots = static_cast<i64>(n);
            const size_t k = static_cast<size_t>(
                ((op.rotation % slots) + slots) % slots);
            std::rotate(msg.begin(), msg.begin() + k, msg.end());
            break;
          }
          case ServeOpKind::MulPlain: {
            const std::vector<Complex> &p =
                plaintexts[op.pt_index % plaintexts.size()];
            for (size_t i = 0; i < n; ++i)
                msg[i] *= p[i];
            break;
          }
          case ServeOpKind::AddScalar:
            for (Complex &x : msg)
                x += op.scalar;
            break;
        }
    }
    return msg;
}

double
precisionBits(const std::vector<Complex> &got,
              const std::vector<Complex> &want)
{
    double err = 0;
    for (size_t i = 0; i < got.size() && i < want.size(); ++i)
        err = std::max(err, std::abs(got[i] - want[i]));
    if (got.size() != want.size() || !std::isfinite(err))
        return 0;
    return err > 0 ? -std::log2(err) : 64.0;
}

} // namespace ark::ref
