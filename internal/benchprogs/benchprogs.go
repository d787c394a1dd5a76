// Package benchprogs embeds the MiniC sources of the paper's evaluation
// workloads (Sec. IV): the STREAM and DGEMM benchmarks and the miniFE
// mini-application, plus the paper's listing examples and the ablation
// kernel used by the PBound-vs-Mira comparison.
//
// The sources follow the originals' structure: STREAM runs NTIMES
// repetitions of copy/scale/add/triad; DGEMM is the HPCC-style
// C = beta*C + alpha*A*B triple loop; miniFE assembles a 27-point-stencil
// CSR system over an nx*ny*nz brick and solves it with unpreconditioned
// CG, spreading work across a call chain (waxpby, dot, matvec-as-
// operator(), cg_solve) exactly because, as Sec. IV-C notes, that call
// chain is what stresses Mira's function-call handling.
package benchprogs

// Stream is the STREAM kernel source. Arrays are caller-allocated; the
// `stream` entry takes the three vectors and their length.
const Stream = `// STREAM: sustainable memory bandwidth kernels (McCalpin).
const int NTIMES = 10;

void tuned_copy(double *a, double *c, int n) {
	int j;
	for (j = 0; j < n; j++) {
		c[j] = a[j];
	}
}

void tuned_scale(double *b, double *c, int n, double scalar) {
	int j;
	for (j = 0; j < n; j++) {
		b[j] = scalar * c[j];
	}
}

void tuned_add(double *a, double *b, double *c, int n) {
	int j;
	for (j = 0; j < n; j++) {
		c[j] = a[j] + b[j];
	}
}

void tuned_triad(double *a, double *b, double *c, int n, double scalar) {
	int j;
	for (j = 0; j < n; j++) {
		a[j] = b[j] + scalar * c[j];
	}
}

void stream(double *a, double *b, double *c, int n) {
	int j;
	int k;
	for (j = 0; j < n; j++) {
		a[j] = 1.0;
		b[j] = 2.0;
		c[j] = 0.0;
	}
	for (k = 0; k < NTIMES; k++) {
		tuned_copy(a, c, n);
		tuned_scale(b, c, n, 3.0);
		tuned_add(a, b, c, n);
		tuned_triad(a, b, c, n, 3.0);
	}
}
`

// Dgemm is the HPCC-style DGEMM source: nrep repetitions of
// C = beta*C + alpha*A*B on n x n matrices stored flat.
const Dgemm = `// DGEMM: double-precision matrix-matrix multiply (HPCC-style).
void dgemm(double *a, double *b, double *c, int n, double alpha, double beta) {
	int i;
	int j;
	int k;
	double t;
	for (i = 0; i < n; i++) {
		for (j = 0; j < n; j++) {
			t = 0.0;
			for (k = 0; k < n; k++) {
				t = t + a[i*n + k] * b[k*n + j];
			}
			c[i*n + j] = beta * c[i*n + j] + alpha * t;
		}
	}
}

void dgemm_bench(double *a, double *b, double *c, int n, int nrep) {
	int r;
	for (r = 0; r < nrep; r++) {
		dgemm(a, b, c, n, 1.0, 0.0);
	}
}
`

// MiniFE is the miniFE-like mini-application: 27-point stencil assembly
// into CSR and an unpreconditioned CG solve. The matvec inner loop is
// data-dependent (CSR row extents), so it carries the paper-style lp_iter
// annotation whose parameter (nnz_row) users bind at evaluation time.
const MiniFE = `// miniFE: finite-element mini-app (assembly + CG solve).
extern double sqrt(double x);

class CSRMatrix {
public:
	int nrows;
	int *row_start;
	int *cols;
	double *vals;
};

class Vector {
public:
	int n;
	double *coefs;
};

class MatVec {
public:
	int tag;
	void operator()(int n, CSRMatrix A, Vector x, Vector y) {
		int i;
		int k;
		double sum;
		for (i = 0; i < n; i++) {
			sum = 0.0;
			#pragma @Annotation {lp_iter:nnz_row}
			for (k = A.row_start[i]; k < A.row_start[i + 1]; k++) {
				sum = sum + A.vals[k] * x.coefs[A.cols[k]];
			}
			y.coefs[i] = sum;
		}
	}
};

void waxpby(int n, double alpha, Vector x, double beta, Vector y, Vector w) {
	int i;
	for (i = 0; i < n; i++) {
		w.coefs[i] = alpha * x.coefs[i] + beta * y.coefs[i];
	}
}

double dot(int n, Vector x, Vector y) {
	double result;
	int i;
	result = 0.0;
	for (i = 0; i < n; i++) {
		result = result + x.coefs[i] * y.coefs[i];
	}
	return result;
}

void assemble(int nx, int ny, int nz, CSRMatrix A) {
	int ix; int iy; int iz;
	int jx; int jy; int jz;
	int row;
	int idx;
	idx = 0;
	for (iz = 0; iz < nz; iz++) {
		for (iy = 0; iy < ny; iy++) {
			for (ix = 0; ix < nx; ix++) {
				row = iz*ny*nx + iy*nx + ix;
				A.row_start[row] = idx;
				for (jz = iz - 1; jz <= iz + 1; jz++) {
					for (jy = iy - 1; jy <= iy + 1; jy++) {
						for (jx = ix - 1; jx <= ix + 1; jx++) {
							if (jz >= 0 && jz <= nz - 1 && jy >= 0 && jy <= ny - 1 && jx >= 0 && jx <= nx - 1) {
								A.cols[idx] = jz*ny*nx + jy*nx + jx;
								if (jz == iz && jy == iy && jx == ix) {
									A.vals[idx] = 26.0;
								} else {
									A.vals[idx] = 0.0 - 1.0;
								}
								idx = idx + 1;
							}
						}
					}
				}
			}
		}
	}
	A.row_start[nx*ny*nz] = idx;
}

double cg_solve(int n, CSRMatrix A, Vector b, Vector x, Vector r, Vector p, Vector Ap, int max_iter) {
	MatVec matvec;
	int i;
	int k;
	double rtrans;
	double oldrtrans;
	double alpha;
	double beta;
	double p_ap;
	double normr;
	for (i = 0; i < n; i++) {
		x.coefs[i] = 0.0;
		r.coefs[i] = b.coefs[i];
		p.coefs[i] = b.coefs[i];
	}
	rtrans = dot(n, r, r);
	normr = sqrt(rtrans);
	for (k = 0; k < max_iter; k++) {
		matvec(n, A, p, Ap);
		p_ap = dot(n, p, Ap);
		alpha = rtrans / p_ap;
		waxpby(n, 1.0, x, alpha, p, x);
		waxpby(n, 1.0, r, 0.0 - alpha, Ap, r);
		oldrtrans = rtrans;
		rtrans = dot(n, r, r);
		beta = rtrans / oldrtrans;
		waxpby(n, 1.0, r, beta, p, p);
		normr = sqrt(rtrans);
	}
	return normr;
}

double minife(int nx, int ny, int nz, int max_iter, CSRMatrix A, Vector b, Vector x, Vector r, Vector p, Vector Ap) {
	int i;
	int n;
	n = nx * ny * nz;
	assemble(nx, ny, nz, A);
	for (i = 0; i < n; i++) {
		b.coefs[i] = 1.0;
	}
	return cg_solve(n, A, b, x, r, p, Ap, max_iter);
}
`

// Fig5 is the paper's Fig. 5(a) source: a class with an annotated member
// function, modeled into A_foo_2 / main_0 Python functions.
const Fig5 = `class A {
public:
	int n;
	void foo(double x[], double y[]) {
		int i;
		int j;
		for (i = 0; i < 16; i++) {
			#pragma @Annotation {lp_cond:y2}
			for (j = 0; j < 16; j++) {
				x[i] = x[i] + y[j];
			}
		}
	}
};
int main() {
	A a;
	double p[16];
	double q[16];
	a.foo(p, q);
	return 0;
}
`

// Listing1 is the paper's basic loop.
const Listing1 = `double listing1() {
	double s;
	int i;
	s = 0.0;
	for (i = 0; i < 10; i++)
	{
		s = s + 1.0;
	}
	return s;
}
`

// Listing2 is the paper's double-nested loop with a dependent inner bound.
const Listing2 = `double listing2() {
	double s;
	int i;
	int j;
	s = 0.0;
	for(i = 1; i <= 4; i++)
		for(j = i + 1; j <= 6; j++)
		{
			s = s + 1.0;
		}
	return s;
}
`

// Listing4 adds the paper's if constraint to Listing 2.
const Listing4 = `double listing4() {
	double s;
	int i;
	int j;
	s = 0.0;
	for(i = 1; i <= 4; i++)
		for(j = i + 1; j <= 6; j++)
		{
			if(j > 4)
			{
				s = s + 1.0;
			}
		}
	return s;
}
`

// Listing5 punches modulo holes in the polyhedron.
const Listing5 = `double listing5() {
	double s;
	int i;
	int j;
	s = 0.0;
	for(i = 1; i <= 4; i++)
		for(j = i + 1; j <= 6; j++)
		{
			if(j % 4 != 0)
			{
				s = s + 1.0;
			}
		}
	return s;
}
`

// Ablation is the PBound-vs-Mira workload: its loop bodies contain
// constant-foldable floating subexpressions and loop-invariant
// subexpressions that the compiler folds/hoists. Source-only analysis
// (PBound) counts them every iteration; binary-aware analysis (Mira)
// counts what the optimizer left.
const Ablation = `double smooth(double *u, double *f, int n, double dx) {
	int i;
	int sweep;
	double w;
	for (sweep = 0; sweep < 10; sweep++) {
		for (i = 1; i < n - 1; i++) {
			w = (0.5 * 0.25 * 4.0) * (u[i-1] + u[i+1]) + (dx * dx * 0.125) * f[i];
			u[i] = w * (1.0 / 3.0) + u[i] * (2.0 / 3.0);
		}
	}
	return u[n/2];
}
`

// BrFrac is a br_frac-annotated kernel: a branch taken with probability
// 0.37 scales its statements and its call by a fraction, so its model
// holds the fractional multiplicities that every evaluator must round
// alike. It is not one of the Bundled workloads.
const BrFrac = `
double work(double v) {
	double t;
	t = v * 2.0 + 1.0;
	return t;
}
double kernel(double *x, int n) {
	double s; int i;
	s = 0.0;
	for (i = 0; i < n; i++) {
		#pragma @Annotation {br_frac:0.37}
		if (x[i] > 0.5) {
			s = s + work(x[i]);
		}
	}
	return s;
}`
