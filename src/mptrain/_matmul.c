/* The ordered matmul behind mptrain.tensor.matmul: c = a @ b for a [m,k]
   and b [k,n], all f32 and C-contiguous.  Every c[i,j] starts at +0 and
   adds a[i,p]*b[p,j] for p = 0..k-1 in that order; only the independent
   j loop is vectorized, and only without acc16.  With acc16 the
   accumulator is rounded to binary16 after every add, one element at a
   time: the x86-64-v3 clone with scalar F16C instructions (vcvtps2ph,
   vcvtph2ps), the default clone, which runs on every x86-64 CPU, with
   calls to libgcc's __truncsfhf2 and __extendhfsf2.  Build with
   -ffp-contract=off, so that no product is fused into its add. */
#ifdef __x86_64__
__attribute__((target_clones("arch=x86-64-v3", "default")))
#endif
void mm(const float *a, const float *b, float *c, long m, long k, long n, int acc16)
{
    for (long i = 0; i < m; i++) {
        float *ci = c + i * n;
        for (long j = 0; j < n; j++)
            ci[j] = 0.0f;
        for (long p = 0; p < k; p++) {
            const float av = a[i * k + p], *bp = b + p * n;
            if (acc16)
                for (long j = 0; j < n; j++)
                    ci[j] = (float)(_Float16)(ci[j] + av * bp[j]);
            else
                for (long j = 0; j < n; j++)
                    ci[j] += av * bp[j];
        }
    }
}
