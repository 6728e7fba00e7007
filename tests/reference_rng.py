"""Scalar splitmix64 reference for the tests: Vigna's generator one draw at
a time, with the derived draws the generator inlines (``next_below``'s
rejection and the float coin) written out as methods."""

from rbcsp.rng import GAMMA, MASK64, mix64


class ScalarSplitMix64:
    """Vigna's splitmix64 one draw at a time, counting rejected draws."""

    def __init__(self, seed):
        self.state = seed & MASK64
        self.rejections = 0

    def next_u64(self):
        self.state = (self.state + GAMMA) & MASK64
        return mix64(self.state)

    def next_below(self, bound):
        threshold = (1 << 64) % bound
        x = self.next_u64()
        while x < threshold:
            self.rejections += 1
            x = self.next_u64()
        return x % bound

    def next_float(self):
        return (self.next_u64() >> 11) * 2.0 ** -53
