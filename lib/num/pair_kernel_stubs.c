/* Flat pair-sum kernel for the exact O(n²) estimator.

   The OCaml side stages the design into flat buffers (cells sorted by
   (type, original index)) and calls [rgleak_pair_sum] once per row
   tile.  For every ordered pair (a, b) with lo <= a < hi, a < b < n,
   the kernel evaluates the binned covariance table of the two cell
   types at their Euclidean distance by linear interpolation and
   accumulates the values into a fixed set of EIGHT lane accumulators.

   Determinism contract (mirrored bit-for-bit by Pair_kernel.sum_ocaml
   and relied on by the cross-ISA and cross-jobs equality tests):

   - Per (row, type-segment), pairs are consumed in blocks of 8; the
     j-th pair of a block goes to lane j.  The < 8 trailing pairs of a
     segment go to a second bank of 8 remainder lanes, again j-th pair
     to lane j.
   - The call's result is sum_{j=0..7} (lane[j] + rem[j]), summed in
     increasing j, each parenthesized exactly like that.
   - Per-pair arithmetic is plain IEEE double +, -, *, sqrt (correctly
     rounded everywhere), with FMA contraction disabled — so the SSE,
     AVX2 and AVX-512 code paths produce identical bits and only the
     instruction count changes.

   Everything the kernel reads lives in caller-owned bigarrays; the
   kernel allocates nothing and never touches the OCaml heap, so calls
   need no GC cooperation beyond returning one boxed float. */

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/bigarray.h>
#include <caml/fail.h>
#include <float.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

#define RGLEAK_LANES 8

#define RGLEAK_ISA_AUTO 0
#define RGLEAK_ISA_SCALAR 1
#define RGLEAK_ISA_AVX2 2
#define RGLEAK_ISA_AVX512 3

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define RGLEAK_X86_DISPATCH 1
#include <immintrin.h>
#else
#define RGLEAK_X86_DISPATCH 0
#endif

/* ---------- scalar reference (every platform) ---------- */

static double pair_sum_scalar(intnat n, const double *xs, const double *ys,
                              const intnat *ty, const intnat *seg,
                              const intnat *base, const double *cov,
                              intnat nu, double inv_dstep, intnat kmax,
                              intnat lo, intnat hi)
{
  double acc[RGLEAK_LANES];
  double rem[RGLEAK_LANES];
  intnat a, t, j;
  memset(acc, 0, sizeof acc);
  memset(rem, 0, sizeof rem);
  (void) n;
  for (a = lo; a < hi; a++) {
    double xa = xs[a], ya = ys[a];
    const intnat *rowbase = base + ty[a] * nu;
    for (t = 0; t < nu; t++) {
      intnat b = seg[t] > a + 1 ? seg[t] : a + 1;
      intnat e = seg[t + 1];
      const double *tbl = cov + rowbase[t];
      for (; b + RGLEAK_LANES <= e; b += RGLEAK_LANES) {
        for (j = 0; j < RGLEAK_LANES; j++) {
          double dx = xs[b + j] - xa, dy = ys[b + j] - ya;
          double d = sqrt(dx * dx + dy * dy);
          double pos = d * inv_dstep;
          intnat k = (intnat) pos;
          k = k < 0 ? 0 : (k > kmax ? kmax : k);
          {
            double t0 = tbl[k], t1 = tbl[k + 1];
            acc[j] += t0 + (pos - (double) k) * (t1 - t0);
          }
        }
      }
      for (j = 0; b < e; b++, j++) {
        double dx = xs[b] - xa, dy = ys[b] - ya;
        double d = sqrt(dx * dx + dy * dy);
        double pos = d * inv_dstep;
        intnat k = (intnat) pos;
        k = k < 0 ? 0 : (k > kmax ? kmax : k);
        {
          double t0 = tbl[k], t1 = tbl[k + 1];
          rem[j] += t0 + (pos - (double) k) * (t1 - t0);
        }
      }
    }
  }
  {
    double s = 0.0;
    for (j = 0; j < RGLEAK_LANES; j++)
      s += acc[j] + rem[j];
    return s;
  }
}

#if RGLEAK_X86_DISPATCH

/* ---------- AVX2: 4-wide halves of the same 8-lane contract ---------- */

__attribute__((target("avx2")))
static double pair_sum_avx2(intnat n, const double *xs, const double *ys,
                            const intnat *ty, const intnat *seg,
                            const intnat *base, const double *cov,
                            intnat nu, double inv_dstep, intnat kmax,
                            intnat lo, intnat hi)
{
  /* lanes 0-3 / 4-7 of the scalar contract */
  __m256d accl = _mm256_setzero_pd(), acch = _mm256_setzero_pd();
  __m256d vinv = _mm256_set1_pd(inv_dstep);
  __m128i vkmax = _mm_set1_epi32((int) kmax);
  __m128i vzero = _mm_setzero_si128();
  double rem[RGLEAK_LANES];
  intnat a, t, j;
  memset(rem, 0, sizeof rem);
  (void) n;
  for (a = lo; a < hi; a++) {
    double xa = xs[a], ya = ys[a];
    const intnat *rowbase = base + ty[a] * nu;
    __m256d vxa = _mm256_set1_pd(xa), vya = _mm256_set1_pd(ya);
    for (t = 0; t < nu; t++) {
      intnat b = seg[t] > a + 1 ? seg[t] : a + 1;
      intnat e = seg[t + 1];
      const double *tbl = cov + rowbase[t];
#define RGLEAK_AVX2_BODY(ACC, BB)                                          \
      {                                                                    \
        __m256d dx = _mm256_sub_pd(_mm256_loadu_pd(xs + (BB)), vxa);       \
        __m256d dy = _mm256_sub_pd(_mm256_loadu_pd(ys + (BB)), vya);       \
        __m256d d = _mm256_sqrt_pd(                                        \
            _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy)));  \
        __m256d pos = _mm256_mul_pd(d, vinv);                              \
        __m128i k = _mm256_cvttpd_epi32(pos);                              \
        k = _mm_max_epi32(_mm_min_epi32(k, vkmax), vzero);                 \
        {                                                                  \
          __m256d t0 = _mm256_i32gather_pd(tbl, k, 8);                     \
          __m256d t1 = _mm256_i32gather_pd(                                \
              tbl, _mm_add_epi32(k, _mm_set1_epi32(1)), 8);                \
          __m256d frac = _mm256_sub_pd(pos, _mm256_cvtepi32_pd(k));        \
          ACC = _mm256_add_pd(                                             \
              ACC, _mm256_add_pd(                                          \
                       t0, _mm256_mul_pd(frac, _mm256_sub_pd(t1, t0))));   \
        }                                                                  \
      }
      for (; b + RGLEAK_LANES <= e; b += RGLEAK_LANES) {
        RGLEAK_AVX2_BODY(accl, b)
        RGLEAK_AVX2_BODY(acch, b + 4)
      }
#undef RGLEAK_AVX2_BODY
      for (j = 0; b < e; b++, j++) {
        double dx = xs[b] - xa, dy = ys[b] - ya;
        double d = sqrt(dx * dx + dy * dy);
        double pos = d * inv_dstep;
        intnat k = (intnat) pos;
        k = k < 0 ? 0 : (k > kmax ? kmax : k);
        {
          double t0 = tbl[k], t1 = tbl[k + 1];
          rem[j] += t0 + (pos - (double) k) * (t1 - t0);
        }
      }
    }
  }
  {
    double l0[4], l1[4], s = 0.0;
    _mm256_storeu_pd(l0, accl);
    _mm256_storeu_pd(l1, acch);
    for (j = 0; j < 4; j++)
      s += l0[j] + rem[j];
    for (j = 0; j < 4; j++)
      s += l1[j] + rem[4 + j];
    return s;
  }
}

/* ---------- AVX-512: one 8-wide block per iteration ---------- */

__attribute__((target("avx2,avx512f,avx512dq,avx512vl")))
static double pair_sum_avx512(intnat n, const double *xs, const double *ys,
                              const intnat *ty, const intnat *seg,
                              const intnat *base, const double *cov,
                              intnat nu, double inv_dstep, intnat kmax,
                              intnat lo, intnat hi)
{
  __m512d vacc = _mm512_setzero_pd();
  __m512d vinv = _mm512_set1_pd(inv_dstep);
  __m256i vkmax = _mm256_set1_epi32((int) kmax);
  __m256i vzero = _mm256_setzero_si256();
  double rem[RGLEAK_LANES];
  intnat a, t, j;
  memset(rem, 0, sizeof rem);
  (void) n;
  for (a = lo; a < hi; a++) {
    double xa = xs[a], ya = ys[a];
    const intnat *rowbase = base + ty[a] * nu;
    __m512d vxa = _mm512_set1_pd(xa), vya = _mm512_set1_pd(ya);
    for (t = 0; t < nu; t++) {
      intnat b = seg[t] > a + 1 ? seg[t] : a + 1;
      intnat e = seg[t + 1];
      const double *tbl = cov + rowbase[t];
      for (; b + RGLEAK_LANES <= e; b += RGLEAK_LANES) {
        __m512d dx = _mm512_sub_pd(_mm512_loadu_pd(xs + b), vxa);
        __m512d dy = _mm512_sub_pd(_mm512_loadu_pd(ys + b), vya);
        __m512d d = _mm512_sqrt_pd(
            _mm512_add_pd(_mm512_mul_pd(dx, dx), _mm512_mul_pd(dy, dy)));
        __m512d pos = _mm512_mul_pd(d, vinv);
        __m256i k = _mm512_cvttpd_epi32(pos);
        k = _mm256_max_epi32(_mm256_min_epi32(k, vkmax), vzero);
        {
          __m512d t0 = _mm512_i32gather_pd(k, tbl, 8);
          __m512d t1 = _mm512_i32gather_pd(
              _mm256_add_epi32(k, _mm256_set1_epi32(1)), tbl, 8);
          __m512d frac = _mm512_sub_pd(pos, _mm512_cvtepi32_pd(k));
          vacc = _mm512_add_pd(
              vacc,
              _mm512_add_pd(t0, _mm512_mul_pd(frac, _mm512_sub_pd(t1, t0))));
        }
      }
      for (j = 0; b < e; b++, j++) {
        double dx = xs[b] - xa, dy = ys[b] - ya;
        double d = sqrt(dx * dx + dy * dy);
        double pos = d * inv_dstep;
        intnat k = (intnat) pos;
        k = k < 0 ? 0 : (k > kmax ? kmax : k);
        {
          double t0 = tbl[k], t1 = tbl[k + 1];
          rem[j] += t0 + (pos - (double) k) * (t1 - t0);
        }
      }
    }
  }
  {
    double lane[RGLEAK_LANES], s = 0.0;
    _mm512_storeu_pd(lane, vacc);
    for (j = 0; j < RGLEAK_LANES; j++)
      s += lane[j] + rem[j];
    return s;
  }
}

#endif /* RGLEAK_X86_DISPATCH */

/* ---------- dispatch ---------- */

static int isa_supported(int isa)
{
  switch (isa) {
  case RGLEAK_ISA_SCALAR:
    return 1;
#if RGLEAK_X86_DISPATCH
  case RGLEAK_ISA_AVX2:
    return __builtin_cpu_supports("avx2") != 0;
  case RGLEAK_ISA_AVX512:
    return __builtin_cpu_supports("avx512f")
           && __builtin_cpu_supports("avx512dq")
           && __builtin_cpu_supports("avx512vl");
#endif
  default:
    return 0;
  }
}

static int best_isa(void)
{
  /* Idempotent, so the unsynchronized cache is benign across domains. */
  static int cached = 0;
  int isa = cached;
  if (isa == 0) {
    isa = RGLEAK_ISA_SCALAR;
    if (isa_supported(RGLEAK_ISA_AVX2)) isa = RGLEAK_ISA_AVX2;
    if (isa_supported(RGLEAK_ISA_AVX512)) isa = RGLEAK_ISA_AVX512;
    cached = isa;
  }
  return isa;
}

/* The ISA a request runs on: Auto means the best one, and an
   unsupported request falls back to scalar (same bits by contract). */
static int pick_isa(int isa)
{
  if (isa == RGLEAK_ISA_AUTO) isa = best_isa();
  return isa_supported(isa) ? isa : RGLEAK_ISA_SCALAR;
}

CAMLprim value rgleak_pair_isa_supported(value visa)
{
  return Val_bool(isa_supported(Int_val(visa)));
}

CAMLprim value rgleak_pair_best_isa(value unit)
{
  (void) unit;
  return Val_int(best_isa());
}

CAMLprim value rgleak_pair_sum(value vxs, value vys, value vty, value vseg,
                               value vbase, value vcov, value vnu,
                               value vinv, value vkmax, value vlo, value vhi,
                               value visa)
{
  const double *xs = (const double *) Caml_ba_data_val(vxs);
  const double *ys = (const double *) Caml_ba_data_val(vys);
  const intnat *ty = (const intnat *) Caml_ba_data_val(vty);
  const intnat *seg = (const intnat *) Caml_ba_data_val(vseg);
  const intnat *base = (const intnat *) Caml_ba_data_val(vbase);
  const double *cov = (const double *) Caml_ba_data_val(vcov);
  intnat n = Caml_ba_array_val(vxs)->dim[0];
  intnat nu = Long_val(vnu);
  double inv_dstep = Double_val(vinv);
  intnat kmax = Long_val(vkmax);
  intnat lo = Long_val(vlo);
  intnat hi = Long_val(vhi);
  double s;
  switch (pick_isa(Int_val(visa))) {
#if RGLEAK_X86_DISPATCH
  case RGLEAK_ISA_AVX2:
    s = pair_sum_avx2(n, xs, ys, ty, seg, base, cov, nu, inv_dstep, kmax,
                      lo, hi);
    break;
  case RGLEAK_ISA_AVX512:
    s = pair_sum_avx512(n, xs, ys, ty, seg, base, cov, nu, inv_dstep, kmax,
                        lo, hi);
    break;
#endif
  default:
    s = pair_sum_scalar(n, xs, ys, ty, seg, base, cov, nu, inv_dstep, kmax,
                        lo, hi);
    break;
  }
  return caml_copy_double(s);
}

CAMLprim value rgleak_pair_sum_bc(value *argv, int argn)
{
  (void) argn;
  return rgleak_pair_sum(argv[0], argv[1], argv[2], argv[3], argv[4],
                         argv[5], argv[6], argv[7], argv[8], argv[9],
                         argv[10], argv[11]);
}

/* ---------- exact fixed-point accumulator (Xsum) ----------

   A Kulisch-style superaccumulator: the running sum is held as an
   exact fixed-point integer in base 2^20, one signed int64 per limb,
   spanning the full double range (bit positions 0 .. ~2100 of the
   2^-1074-anchored frame) plus headroom limbs for intermediate
   magnitude growth.  Each add splits the 53-bit mantissa over at most
   four limbs (carry-save, signed), so a limb grows by < 2^20 per add
   and stays inside int64 for ~2^42 adds — far beyond any pair loop
   here.  Because integer addition is associative and commutative, the
   represented value after any sequence of adds and subtracts is a
   pure function of the term multiset: retracting one row of a pair
   sum and re-adding it at a new scale leaves bits identical to a cold
   rebuild, which is the property the delta estimator's equivalence
   battery pins down.

   Extraction first normalizes (carry-propagates) the limbs into a
   canonical representation — a pure function of the exact value — and
   then rounds once, to nearest-even, from the top 53 bits plus a round
   bit and a sticky bit, so the extracted double is the correctly
   rounded exact sum whatever the add order, job count or merge shape.
   Slot XS_LIMBS counts non-finite adds; any makes the extracted value
   NaN (caught by the Guard at the "delta" site). */

#define XS_W 20
#define XS_MASK ((uint64_t) ((1u << XS_W) - 1))
#define XS_LIMBS 110
#define XS_DIM (XS_LIMBS + 1)

static inline void xs_add1(int64_t *a, double v)
{
  union { double d; uint64_t u; } bits;
  uint64_t m;
  int e, q, r, bitpos;
  unsigned __int128 p;
  bits.d = v;
  e = (int) ((bits.u >> 52) & 0x7ff);
  m = bits.u & 0xfffffffffffffULL;
  if (e == 0x7ff) { /* NaN or infinity: poison the accumulator */
    a[XS_LIMBS] += 1;
    return;
  }
  if (e == 0) {
    if (m == 0) return; /* +-0.0 */
    bitpos = 0;         /* subnormal: m * 2^-1074 */
  } else {
    m |= 1ULL << 52;    /* normal: m * 2^(e - 1075) */
    bitpos = e - 1;
  }
  q = bitpos / XS_W;
  r = bitpos % XS_W;
  p = ((unsigned __int128) m) << r; /* <= 72 bits: four 20-bit pieces */
  if (bits.u >> 63) {
    a[q + 0] -= (int64_t) ((uint64_t) p & XS_MASK);
    a[q + 1] -= (int64_t) ((uint64_t) (p >> XS_W) & XS_MASK);
    a[q + 2] -= (int64_t) ((uint64_t) (p >> (2 * XS_W)) & XS_MASK);
    a[q + 3] -= (int64_t) ((uint64_t) (p >> (3 * XS_W)) & XS_MASK);
  } else {
    a[q + 0] += (int64_t) ((uint64_t) p & XS_MASK);
    a[q + 1] += (int64_t) ((uint64_t) (p >> XS_W) & XS_MASK);
    a[q + 2] += (int64_t) ((uint64_t) (p >> (2 * XS_W)) & XS_MASK);
    a[q + 3] += (int64_t) ((uint64_t) (p >> (3 * XS_W)) & XS_MASK);
  }
}

static void xs_carry(int64_t *t)
{
  intnat i;
  for (i = 0; i < XS_LIMBS - 1; i++) {
    int64_t c = t[i] >> XS_W; /* arithmetic shift: floor division */
    t[i] -= c << XS_W;
    t[i + 1] += c;
  }
}

/* Round the canonical non-negative limbs t[0..top] (t[top] != 0) to
   the nearest double, ties to even.  The top five limbs (<= 100 bits,
   >= 81 of them significant) hold the 53 kept bits and the round bit;
   every lower limb only feeds the sticky bit. */
static double xs_round(const int64_t *t, intnat top)
{
  unsigned __int128 w = 0, rest, half;
  intnat i, lo = top >= 4 ? top - 4 : 0;
  int sticky = 0, len = 0, shift;
  uint64_t m;
  /* 2^(20 * 105 - 1074) is beyond the double range */
  if (top >= 105) return HUGE_VAL;
  for (i = top; i >= lo; i--) w = (w << XS_W) | (uint64_t) t[i];
  for (i = lo - 1; i >= 0 && !sticky; i--) sticky = t[i] != 0;
  for (rest = w; rest != 0; rest >>= 1) len++;
  if (len <= 53) /* then lo = 0: the sum is a 53-bit integer times 2^-1074 */
    return ldexp((double) (uint64_t) w, -1074);
  shift = len - 53;
  m = (uint64_t) (w >> shift);
  rest = w & ((((unsigned __int128) 1) << shift) - 1);
  half = ((unsigned __int128) 1) << (shift - 1);
  if (rest > half || (rest == half && (sticky || (m & 1)))) m++;
  /* m <= 2^53 converts exactly; ldexp overflows to infinity on its own */
  return ldexp((double) m, shift + (int) (lo * XS_W) - 1074);
}

static double xs_value(const int64_t *a)
{
  int64_t t[XS_LIMBS];
  intnat i, top;
  int neg = 0;
  double v;
  if (a[XS_LIMBS] != 0) return (double) NAN;
  memcpy(t, a, sizeof t);
  xs_carry(t); /* canonical: limbs in [0, 2^20), signed top limb */
  if (t[XS_LIMBS - 1] < 0) {
    neg = 1;
    for (i = 0; i < XS_LIMBS; i++) t[i] = -t[i];
    xs_carry(t);
  }
  top = XS_LIMBS - 1;
  while (top > 0 && t[top] == 0) top--;
  v = t[top] == 0 ? 0.0 : xs_round(t, top);
  return neg ? -v : v;
}

CAMLprim value rgleak_xsum_dim(value unit)
{
  (void) unit;
  return Val_int(XS_DIM);
}

CAMLprim value rgleak_xsum_add(value vacc, value vx)
{
  int64_t *a = (int64_t *) Caml_ba_data_val(vacc);
  xs_add1(a, Double_val(vx));
  return Val_unit;
}

CAMLprim value rgleak_xsum_value(value vacc)
{
  return caml_copy_double(xs_value((const int64_t *) Caml_ba_data_val(vacc)));
}

/* ---------- exact block reduction into an Xsum ----------

   Feeding every term through xs_add1 costs a 128-bit shift and four
   limb read-modify-writes per term, all scalar.  Instead, terms are
   staged in a block of at most XB_CAP doubles and the block is reduced
   with the ExtractVector error-free transformation of Rump, Ogita and
   Oishi ("Accurate floating-point summation part I: faithful rounding",
   SIAM J. Sci. Comput. 31(1), 2008).  With sigma = 2^k and every
   |p_i| <= 2^-11 sigma,

     q_i = (sigma + p_i) - sigma,   p_i' = p_i - q_i

   are both exact (Sterbenz; the rounding error of a sum is a double),
   each q_i is a multiple of 2^(k-53) and |p_i'| <= 2^(k-53).  For
   XB_CAP <= 2^10 terms every partial sum of the q_i is a multiple of
   2^(k-53) below 2^k in magnitude, hence a double: tau = sum q_i is
   exact in plain floating point, in any order and lane split.  So
   sum p = tau + sum p' exactly; one xs_add1 takes tau, and the level
   repeats on p' (whose maximum shrinks by >= 2^40) until it is all
   zeros, typically after two levels.  The accumulator ends up holding
   exactly the same value as per-term adds would give.

   Non-finite terms are zeroed and counted in the poison slot before
   the first level, by an explicit finiteness test (vector max does not
   order NaN).  A block whose maximum is near the top of the
   double range (sigma would overflow) or deep in underflow falls back
   to per-term xs_add1.  Blocks live on the caller's stack, so bands
   on parallel domains share nothing. */

#define XB_CAP 1024 /* a multiple of the widest vector, and <= 2^10 */
#define XB_HI 0x1p1000
#define XB_LO 0x1p-900

/* 2^(e + 12) for normal mx in [2^e, 2^(e+1)): every |p_i| <= mx is
   below 2^-11 sigma */
static inline double xb_sigma(double mx)
{
  union { double d; uint64_t u; } b;
  b.d = mx;
  b.u = ((b.u >> 52) + 12) << 52;
  return b.d;
}

/* Zero the non-finite entries of p[0..n), counting them into *poison,
   and return the largest remaining |p_i|. */
static double xb_scan_scalar(double *p, intnat n, int64_t *poison)
{
  double mx = 0.0;
  intnat i;
  for (i = 0; i < n; i++) {
    double a = fabs(p[i]);
    if (!(a <= DBL_MAX)) {
      p[i] = 0.0;
      *poison += 1;
    } else if (a > mx)
      mx = a;
  }
  return mx;
}

/* One extraction level: p <- p - q, *tau = sum q; returns max |p|. */
static double xb_level_scalar(double *p, intnat n, double sigma, double *tau)
{
  double t = 0.0, mx = 0.0;
  intnat i;
  for (i = 0; i < n; i++) {
    double q = (sigma + p[i]) - sigma;
    double r = fabs(p[i] -= q);
    t += q;
    if (r > mx) mx = r;
  }
  *tau = t;
  return mx;
}

/* The interpolated covariance of pair (row at (xa, ya), b), weighted
   (sa * scale[b]) * w — the per-pair arithmetic of the summing kernel,
   shared by every ISA's scalar remainder. */
typedef struct {
  const double *xs, *ys, *scale, *cov;
  const intnat *ty, *seg, *base;
  intnat nu, kmax;
  double inv_dstep;
} pair_geom;

static inline double pair_term(const pair_geom *g, const double *tbl,
                               double xa, double ya, double sa, intnat b)
{
  double dx = g->xs[b] - xa, dy = g->ys[b] - ya;
  double d = sqrt(dx * dx + dy * dy);
  double pos = d * g->inv_dstep;
  intnat k = (intnat) pos;
  double t0, t1;
  k = k < 0 ? 0 : (k > g->kmax ? g->kmax : k);
  t0 = tbl[k];
  t1 = tbl[k + 1];
  return (sa * g->scale[b]) * (t0 + (pos - (double) k) * (t1 - t0));
}

/* Terms of partners [b, e) of one row against one type table, written
   to out[0 .. e-b). */
static void terms_scalar(const pair_geom *g, const double *tbl, double xa,
                         double ya, double sa, intnat b, intnat e,
                         double *out)
{
  for (; b < e; b++) *out++ = pair_term(g, tbl, xa, ya, sa, b);
}

#if RGLEAK_X86_DISPATCH

__attribute__((target("avx2")))
static void terms_avx2(const pair_geom *g, const double *tbl, double xa,
                       double ya, double sa, intnat b, intnat e, double *out)
{
  __m256d vxa = _mm256_set1_pd(xa), vya = _mm256_set1_pd(ya);
  __m256d vsa = _mm256_set1_pd(sa), vinv = _mm256_set1_pd(g->inv_dstep);
  __m128i vkmax = _mm_set1_epi32((int) g->kmax);
  __m128i vzero = _mm_setzero_si128(), vone = _mm_set1_epi32(1);
  for (; b + 4 <= e; b += 4, out += 4) {
    __m256d dx = _mm256_sub_pd(_mm256_loadu_pd(g->xs + b), vxa);
    __m256d dy = _mm256_sub_pd(_mm256_loadu_pd(g->ys + b), vya);
    __m256d d = _mm256_sqrt_pd(
        _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy)));
    __m256d pos = _mm256_mul_pd(d, vinv);
    __m128i k = _mm256_cvttpd_epi32(pos);
    k = _mm_max_epi32(_mm_min_epi32(k, vkmax), vzero);
    {
      __m256d t0 = _mm256_i32gather_pd(tbl, k, 8);
      __m256d t1 = _mm256_i32gather_pd(tbl, _mm_add_epi32(k, vone), 8);
      __m256d frac = _mm256_sub_pd(pos, _mm256_cvtepi32_pd(k));
      __m256d w =
          _mm256_add_pd(t0, _mm256_mul_pd(frac, _mm256_sub_pd(t1, t0)));
      __m256d s = _mm256_mul_pd(vsa, _mm256_loadu_pd(g->scale + b));
      _mm256_storeu_pd(out, _mm256_mul_pd(s, w));
    }
  }
  terms_scalar(g, tbl, xa, ya, sa, b, e, out);
}

__attribute__((target("avx2")))
static double xb_scan_avx2(double *p, intnat n, int64_t *poison)
{
  __m256d vabs = _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  __m256d vbig = _mm256_set1_pd(DBL_MAX), vmx = _mm256_setzero_pd();
  double m[4];
  intnat i;
  int bad = 0;
  for (i = 0; i < n; i += 4) {
    __m256d v = _mm256_loadu_pd(p + i);
    __m256d a = _mm256_and_pd(v, vabs);
    __m256d ok = _mm256_cmp_pd(a, vbig, _CMP_LE_OQ); /* false on NaN, Inf */
    bad += 4 - __builtin_popcount(_mm256_movemask_pd(ok));
    _mm256_storeu_pd(p + i, _mm256_and_pd(v, ok));
    vmx = _mm256_max_pd(vmx, _mm256_and_pd(a, ok));
  }
  *poison += bad;
  _mm256_storeu_pd(m, vmx);
  return fmax(fmax(m[0], m[1]), fmax(m[2], m[3]));
}

__attribute__((target("avx2")))
static double xb_level_avx2(double *p, intnat n, double sigma, double *tau)
{
  __m256d vabs = _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  __m256d vs = _mm256_set1_pd(sigma);
  __m256d vt = _mm256_setzero_pd(), vmx = _mm256_setzero_pd();
  double t[4], m[4];
  intnat i;
  for (i = 0; i < n; i += 4) {
    __m256d v = _mm256_loadu_pd(p + i);
    __m256d q = _mm256_sub_pd(_mm256_add_pd(vs, v), vs);
    v = _mm256_sub_pd(v, q);
    _mm256_storeu_pd(p + i, v);
    vt = _mm256_add_pd(vt, q);
    vmx = _mm256_max_pd(vmx, _mm256_and_pd(v, vabs));
  }
  _mm256_storeu_pd(t, vt);
  _mm256_storeu_pd(m, vmx);
  *tau = (t[0] + t[1]) + (t[2] + t[3]);
  return fmax(fmax(m[0], m[1]), fmax(m[2], m[3]));
}

__attribute__((target("avx2,avx512f,avx512dq,avx512vl")))
static void terms_avx512(const pair_geom *g, const double *tbl, double xa,
                         double ya, double sa, intnat b, intnat e,
                         double *out)
{
  __m512d vxa = _mm512_set1_pd(xa), vya = _mm512_set1_pd(ya);
  __m512d vsa = _mm512_set1_pd(sa), vinv = _mm512_set1_pd(g->inv_dstep);
  __m256i vkmax = _mm256_set1_epi32((int) g->kmax);
  __m256i vzero = _mm256_setzero_si256(), vone = _mm256_set1_epi32(1);
  for (; b + 8 <= e; b += 8, out += 8) {
    __m512d dx = _mm512_sub_pd(_mm512_loadu_pd(g->xs + b), vxa);
    __m512d dy = _mm512_sub_pd(_mm512_loadu_pd(g->ys + b), vya);
    __m512d d = _mm512_sqrt_pd(
        _mm512_add_pd(_mm512_mul_pd(dx, dx), _mm512_mul_pd(dy, dy)));
    __m512d pos = _mm512_mul_pd(d, vinv);
    __m256i k = _mm512_cvttpd_epi32(pos);
    k = _mm256_max_epi32(_mm256_min_epi32(k, vkmax), vzero);
    {
      __m512d t0 = _mm512_i32gather_pd(k, tbl, 8);
      __m512d t1 = _mm512_i32gather_pd(_mm256_add_epi32(k, vone), tbl, 8);
      __m512d frac = _mm512_sub_pd(pos, _mm512_cvtepi32_pd(k));
      __m512d w =
          _mm512_add_pd(t0, _mm512_mul_pd(frac, _mm512_sub_pd(t1, t0)));
      __m512d s = _mm512_mul_pd(vsa, _mm512_loadu_pd(g->scale + b));
      _mm512_storeu_pd(out, _mm512_mul_pd(s, w));
    }
  }
  terms_scalar(g, tbl, xa, ya, sa, b, e, out);
}

__attribute__((target("avx2,avx512f,avx512dq,avx512vl")))
static double xb_scan_avx512(double *p, intnat n, int64_t *poison)
{
  __m512d vbig = _mm512_set1_pd(DBL_MAX), vmx = _mm512_setzero_pd();
  intnat i;
  int bad = 0;
  for (i = 0; i < n; i += 8) {
    __m512d v = _mm512_loadu_pd(p + i);
    __m512d a = _mm512_abs_pd(v);
    /* false on NaN and Inf */
    __mmask8 ok = _mm512_cmp_pd_mask(a, vbig, _CMP_LE_OQ);
    bad += 8 - __builtin_popcount(ok);
    _mm512_storeu_pd(p + i, _mm512_maskz_mov_pd(ok, v));
    vmx = _mm512_max_pd(vmx, _mm512_maskz_mov_pd(ok, a));
  }
  *poison += bad;
  return _mm512_reduce_max_pd(vmx);
}

__attribute__((target("avx2,avx512f,avx512dq,avx512vl")))
static double xb_level_avx512(double *p, intnat n, double sigma, double *tau)
{
  __m512d vs = _mm512_set1_pd(sigma);
  __m512d vt = _mm512_setzero_pd(), vmx = _mm512_setzero_pd();
  intnat i;
  for (i = 0; i < n; i += 8) {
    __m512d v = _mm512_loadu_pd(p + i);
    __m512d q = _mm512_sub_pd(_mm512_add_pd(vs, v), vs);
    v = _mm512_sub_pd(v, q);
    _mm512_storeu_pd(p + i, v);
    vt = _mm512_add_pd(vt, q);
    vmx = _mm512_max_pd(vmx, _mm512_abs_pd(v));
  }
  *tau = _mm512_reduce_add_pd(vt);
  return _mm512_reduce_max_pd(vmx);
}

#endif /* RGLEAK_X86_DISPATCH */

typedef struct {
  void (*terms)(const pair_geom *, const double *, double, double, double,
                intnat, intnat, double *);
  double (*scan)(double *, intnat, int64_t *);
  double (*level)(double *, intnat, double, double *);
} xb_ops;

typedef struct {
  int64_t *acc;
  xb_ops ops;
  intnat n;
  double p[XB_CAP];
} xblock;

static void xb_init(xblock *xb, int64_t *acc, int isa)
{
  xb->acc = acc;
  xb->n = 0;
  xb->ops.terms = terms_scalar;
  xb->ops.scan = xb_scan_scalar;
  xb->ops.level = xb_level_scalar;
  switch (pick_isa(isa)) {
#if RGLEAK_X86_DISPATCH
  case RGLEAK_ISA_AVX2:
    xb->ops.terms = terms_avx2;
    xb->ops.scan = xb_scan_avx2;
    xb->ops.level = xb_level_avx2;
    break;
  case RGLEAK_ISA_AVX512:
    xb->ops.terms = terms_avx512;
    xb->ops.scan = xb_scan_avx512;
    xb->ops.level = xb_level_avx512;
    break;
#endif
  default:
    break;
  }
}

/* Reduce the staged block exactly into the accumulator and empty it. */
static void xb_flush(xblock *xb)
{
  double *p = xb->p;
  intnat n = xb->n, i;
  double mx, tau;
  while (n % 8 != 0) p[n++] = 0.0; /* whole vectors; zeros extract to 0 */
  mx = xb->ops.scan(p, n, xb->acc + XS_LIMBS);
  while (mx != 0.0) {
    if (mx >= XB_HI || mx < XB_LO) {
      for (i = 0; i < n; i++) xs_add1(xb->acc, p[i]);
      break;
    }
    mx = xb->ops.level(p, n, xb_sigma(mx), &tau);
    xs_add1(xb->acc, tau);
  }
  xb->n = 0;
}

/* Stage the terms of partners [b, e) of one row, flushing full blocks. */
static void xb_partners(xblock *xb, const pair_geom *g, const double *tbl,
                        double xa, double ya, double sa, intnat b, intnat e)
{
  while (b < e) {
    intnat m = XB_CAP - xb->n;
    if (m > e - b) m = e - b;
    xb->ops.terms(g, tbl, xa, ya, sa, b, b + m, xb->p + xb->n);
    xb->n += m;
    b += m;
    if (xb->n == XB_CAP) xb_flush(xb);
  }
}

CAMLprim value rgleak_xsum_add_block(value vacc, value vterms, value visa)
{
  xblock xb;
  intnat len = Wosize_val(vterms) / Double_wosize, i = 0;
  xb_init(&xb, (int64_t *) Caml_ba_data_val(vacc), Int_val(visa));
  while (i < len) {
    for (; i < len && xb.n < XB_CAP; i++)
      xb.p[xb.n++] = Double_flat_field(vterms, i);
    xb_flush(&xb);
  }
  return Val_unit;
}

/* ---------- scaled pair accumulation into an Xsum ----------

   Same traversal and per-pair interpolation arithmetic as the summing
   kernel above, but each pair's table value is weighted by the product
   of the two cells' scale factors — (scale[a] * scale[b]) * w, exactly
   that association — and accumulated exactly through the block
   reduction.  No lane contract is needed: the superaccumulator makes
   the result independent of iteration order, block boundaries and ISA
   by construction.

   rgleak_pair_acc covers rows [lo, hi) (cold build / band task);
   rgleak_pair_acc_row covers every partner of one row at an explicit
   row scale [srow] (pass -old_scale then +new_scale to retarget one
   cell).  Both compute identical per-pair term doubles: the distance
   is symmetric, the type-pair table offsets are symmetric by
   construction, and IEEE multiplication commutes. */

static void geom_of(pair_geom *g, value vxs, value vys, value vty, value vseg,
                    value vbase, value vcov, value vscale, value vnu,
                    value vinv, value vkmax)
{
  g->xs = (const double *) Caml_ba_data_val(vxs);
  g->ys = (const double *) Caml_ba_data_val(vys);
  g->ty = (const intnat *) Caml_ba_data_val(vty);
  g->seg = (const intnat *) Caml_ba_data_val(vseg);
  g->base = (const intnat *) Caml_ba_data_val(vbase);
  g->cov = (const double *) Caml_ba_data_val(vcov);
  g->scale = (const double *) Caml_ba_data_val(vscale);
  g->nu = Long_val(vnu);
  g->inv_dstep = Double_val(vinv);
  g->kmax = Long_val(vkmax);
}

CAMLprim value rgleak_pair_acc(value vxs, value vys, value vty, value vseg,
                               value vbase, value vcov, value vscale,
                               value vacc, value vnu, value vinv,
                               value vkmax, value vlo, value vhi, value visa)
{
  pair_geom g;
  xblock xb;
  intnat a, t, hi = Long_val(vhi);
  geom_of(&g, vxs, vys, vty, vseg, vbase, vcov, vscale, vnu, vinv, vkmax);
  xb_init(&xb, (int64_t *) Caml_ba_data_val(vacc), Int_val(visa));
  for (a = Long_val(vlo); a < hi; a++) {
    const intnat *rowbase = g.base + g.ty[a] * g.nu;
    for (t = 0; t < g.nu; t++)
      xb_partners(&xb, &g, g.cov + rowbase[t], g.xs[a], g.ys[a], g.scale[a],
                  g.seg[t] > a + 1 ? g.seg[t] : a + 1, g.seg[t + 1]);
  }
  xb_flush(&xb);
  return Val_unit;
}

CAMLprim value rgleak_pair_acc_bc(value *argv, int argn)
{
  (void) argn;
  return rgleak_pair_acc(argv[0], argv[1], argv[2], argv[3], argv[4],
                         argv[5], argv[6], argv[7], argv[8], argv[9],
                         argv[10], argv[11], argv[12], argv[13]);
}

CAMLprim value rgleak_pair_acc_row(value vxs, value vys, value vty,
                                   value vseg, value vbase, value vcov,
                                   value vscale, value vacc, value vnu,
                                   value vinv, value vkmax, value vrow,
                                   value vsrow, value visa)
{
  pair_geom g;
  xblock xb;
  intnat t, c = Long_val(vrow);
  double sc = Double_val(vsrow);
  const intnat *rowbase;
  geom_of(&g, vxs, vys, vty, vseg, vbase, vcov, vscale, vnu, vinv, vkmax);
  xb_init(&xb, (int64_t *) Caml_ba_data_val(vacc), Int_val(visa));
  rowbase = g.base + g.ty[c] * g.nu;
  for (t = 0; t < g.nu; t++) {
    const double *tbl = g.cov + rowbase[t];
    intnat s = g.seg[t], e = g.seg[t + 1];
    if (c >= s && c < e) { /* skip the row itself */
      xb_partners(&xb, &g, tbl, g.xs[c], g.ys[c], sc, s, c);
      s = c + 1;
    }
    xb_partners(&xb, &g, tbl, g.xs[c], g.ys[c], sc, s, e);
  }
  xb_flush(&xb);
  return Val_unit;
}

CAMLprim value rgleak_pair_acc_row_bc(value *argv, int argn)
{
  (void) argn;
  return rgleak_pair_acc_row(argv[0], argv[1], argv[2], argv[3], argv[4],
                             argv[5], argv[6], argv[7], argv[8], argv[9],
                             argv[10], argv[11], argv[12], argv[13]);
}
