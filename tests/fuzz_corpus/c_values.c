// expect: run
// C's scalar values, folded at compile time exactly as the machine
// computes them.  Each function once disagreed with C somewhere:
//   f32_steps    1 when optimized: forward substitution folded the
//                float sums in double (C: 0, 16777216 + 1 rounds back);
//   f32_literal  2 unoptimized: the 0.1f literal was the double 0.1
//                (C: 1);
//   g * 10 + l   9: the global's initializer shifted in unbounded
//                integers, g = 1 (C: g = l = -1, -11);
//   f32_global   an OverflowError storing the float32 overflow
//                boundary (C: it rounds to inf, 1);
//   f32_narrow   an OverflowError in generated code for the same
//                value converted from a double (C: inf, 1).
// main returns (-11 + 100) * 10000 + 0 * 1000 + 100 + 10 + 1 = 890111.
int g = (1 << 31) >> 31;
float big = 3.4028235677973366e38;

int f32_steps(void) {
    float y = 16777216.0f;
    y = y + 1.0f;
    y = y + 1.0f;
    return y == 16777218.0f;
}

int f32_literal(void) {
    float a = 0.1f;
    return a == 0.1f ? 1 : 2;
}

int f32_global(void) {
    return big > 3.4028234663852886e38;
}

int f32_narrow(void) {
    double d = 3.4028235677973366e38;
    float f;
    f = d;
    return f > 3.4028234663852886e38;
}

int main(void) {
    int l = (1 << 31) >> 31;
    return (g * 10 + l + 100) * 10000 + f32_steps() * 1000
        + f32_literal() * 100 + f32_global() * 10 + f32_narrow();
}
