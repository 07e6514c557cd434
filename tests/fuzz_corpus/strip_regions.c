// expect: run
// Strip-region exercise: one loop per shape the vectorizer's code
// generation emits, run at a trip count just past one 32-element strip
// (33) and at one that takes several strips (100):
//  * a vector store and a reduction distributed from one loop (the
//    c[i] strips fork; the reduction's are too few to pay and do not);
//  * a recurrence kept in a sequential loop beside a vector store;
//  * a carried anti self-dependence a[i] = a[i+1] + 1 (one vector
//    statement per strip, strips not spread across processors);
//  * a 16-trip store and a 16-trip reduction (no strip loop at all).
int a[101], b[101], c[101], d[101], e[101];
int p[16], q[16];

int mix(int n)
{
    int i, s;
    s = 0;
    for (i = 0; i < n; i++) {
        c[i] = a[i] * b[i];
        s = s + c[i];
    }
    return s;
}

void recur(int n)
{
    int i;
    for (i = 0; i < n; i++) {
        d[i + 1] = d[i] + b[i];
        e[i] = b[i] * 3;
    }
}

void shift(int n)
{
    int i;
    for (i = 0; i < n; i++)
        a[i] = a[i + 1] + 1;
}

int short16(void)
{
    int i, s;
    for (i = 0; i < 16; i++)
        p[i] = q[i] * 2;
    s = 0;
    for (i = 0; i < 16; i++)
        s = s + p[i];
    return s;
}

int run(int n)
{
    int i, chk;
    for (i = 0; i < 101; i++) {
        a[i] = (i * 7) % 13 - 6;
        b[i] = i % 5 + 1;
        d[i] = 0;
    }
    for (i = 0; i < 16; i++)
        q[i] = i - 5;
    chk = mix(n);
    recur(n);
    shift(n);
    chk = chk * 31 + short16();
    for (i = 0; i <= n; i++)
        chk = (chk * 7 + a[i] + c[i] * 3 + d[i] * 5 + e[i] * 11) % 65521;
    return chk;
}

int main(void)
{
    return run(33) * 3 + run(100);
}
