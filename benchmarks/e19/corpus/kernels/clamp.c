/* Pixel clamp: both branches store the same element, so
 * if-conversion merges them into select dataflow. */
float pix[{n}];
float lo, hi;

void clamp(int n)
{
    int i;
    for (i = 0; i < n; i++) {
        if (pix[i] < lo)
            pix[i] = lo;
        if (pix[i] > hi)
            pix[i] = hi;
    }
}

int main(void)
{
    int i;
    float s;
    lo = 3.0f;
    hi = 11.0f;
    for (i = 0; i < {n}; i++)
        pix[i] = (i + {s}) & 15;
    clamp({n});
    s = 0.0f;
    for (i = 0; i < {n}; i++)
        s = s + pix[i];
    return (int) s;
}
