//! Lowering of [`Expr`] trees to closed linear forms.
//!
//! The interpreter evaluates every offset, value and bound expression once
//! per executed statement, so it never walks an [`Expr`] tree at run time.
//! [`Lowerer`] rewrites each tree, once per run, into a [`Form`]: the linear
//! form `c + Σ mᵢ·varᵢ` over the program's variables, with the run's inputs
//! folded into `c`.
//!
//! `Expr::eval` computes with wrapping 64-bit arithmetic, that is, in the
//! ring of integers mod 2⁶⁴. Addition, subtraction and multiplication there
//! are commutative, associative and distributive, so expanding a tree whose
//! products each have a constant side, and collecting the coefficients of
//! each variable, yields a polynomial of degree one whose wrapping value is
//! the tree's value bit for bit. Overflow is no exception: both sides are
//! the same residue mod 2⁶⁴.
//!
//! What is not linear keeps its place as a weighted *atom* of the form: a
//! product of two non-constant forms, or an input read at a non-constant
//! index (`InputDyn`). Atoms are evaluated recursively, so the fallback is
//! exact as well.

use crate::expr::Expr;

/// A lowered expression: `c + Σ mᵢ·varᵢ`, plus weighted atoms when the
/// expression is not linear. Forms with at most two variables are inline.
#[derive(Debug, PartialEq)]
pub(crate) enum Form {
    /// `c`.
    Const(i64),
    /// `c + m·v`.
    Lin1 { c: i64, m: i64, v: u32 },
    /// `c + m[0]·v[0] + m[1]·v[1]`.
    Lin2 { c: i64, m: [i64; 2], v: [u32; 2] },
    /// `c + Σ m·v` over three or more variables.
    LinN { c: i64, terms: Box<[(i64, u32)]> },
    /// A linear part plus `Σ m·atom`.
    Mixed(Box<Mixed>),
}

/// The non-linear fallback of a [`Form`].
#[derive(Debug, PartialEq)]
pub(crate) struct Mixed {
    lin: Form,
    atoms: Box<[(i64, Atom)]>,
}

/// A non-linear term.
#[derive(Debug, PartialEq)]
enum Atom {
    /// The product of two forms, neither of them constant.
    Mul(Form, Form),
    /// `inputs[form]`; negative and out-of-range indexes read 0.
    Input(Form),
}

fn input_at(inputs: &[i64], idx: i64) -> i64 {
    usize::try_from(idx)
        .ok()
        .and_then(|i| inputs.get(i))
        .copied()
        .unwrap_or(0)
}

impl Form {
    /// The expression's value with `vars` bound; equal to `Expr::eval` on
    /// the tree this form was lowered from.
    ///
    /// The inline forms, nearly every form a program executes, are
    /// evaluated in place; the wide ones go through one out-of-line call,
    /// which keeps this body small enough to inline at every use.
    #[inline(always)]
    pub(crate) fn eval(&self, vars: &[i64], inputs: &[i64]) -> i64 {
        match self {
            Form::Const(c) => *c,
            Form::Lin1 { c, m, v } => c.wrapping_add(m.wrapping_mul(vars[*v as usize])),
            Form::Lin2 { c, m, v } => c
                .wrapping_add(m[0].wrapping_mul(vars[v[0] as usize]))
                .wrapping_add(m[1].wrapping_mul(vars[v[1] as usize])),
            Form::LinN { .. } | Form::Mixed(_) => self.eval_wide(vars, inputs),
        }
    }

    /// [`Form::eval`] of a `LinN` or `Mixed` form.
    #[inline(never)]
    fn eval_wide(&self, vars: &[i64], inputs: &[i64]) -> i64 {
        match self {
            Form::LinN { c, terms } => terms.iter().fold(*c, |acc, &(m, v)| {
                acc.wrapping_add(m.wrapping_mul(vars[v as usize]))
            }),
            Form::Mixed(x) => x
                .atoms
                .iter()
                .fold(x.lin.eval(vars, inputs), |acc, (m, a)| {
                    let val = match a {
                        Atom::Mul(l, r) => l.eval(vars, inputs).wrapping_mul(r.eval(vars, inputs)),
                        Atom::Input(idx) => input_at(inputs, idx.eval(vars, inputs)),
                    };
                    acc.wrapping_add(m.wrapping_mul(val))
                }),
            inline => inline.eval(vars, inputs),
        }
    }
}

/// Lowers expressions for one run: `num_vars` variables, fixed inputs.
pub(crate) struct Lowerer<'a> {
    num_vars: u32,
    inputs: &'a [i64],
    /// Variable terms `(m, v)` of the forms being built. A nested lowering
    /// (an operand of a product, an input index) pushes its terms above
    /// those of the form that contains it and pops them when it finishes,
    /// so one buffer serves a whole program.
    terms: Vec<(i64, u32)>,
}

/// One form under construction: its terms are `terms[start..]`.
struct Acc {
    start: usize,
    c: i64,
    atoms: Vec<(i64, Atom)>,
}

impl<'a> Lowerer<'a> {
    pub(crate) fn new(num_vars: u32, inputs: &'a [i64]) -> Self {
        Lowerer {
            num_vars,
            inputs,
            terms: Vec::new(),
        }
    }

    /// Lowers `e`. A variable at or above `num_vars` is never bound, so it
    /// reads 0 and is dropped; every variable left in the form indexes
    /// below `num_vars`.
    pub(crate) fn lower(&mut self, e: &Expr) -> Form {
        // Leaves, most of a program's expressions, need no accumulator.
        match e {
            Expr::Const(c) => return Form::Const(*c),
            Expr::Var(v) if v.0 < self.num_vars => return Form::Lin1 { c: 0, m: 1, v: v.0 },
            _ => {}
        }
        let mut acc = Acc {
            start: self.terms.len(),
            c: 0,
            atoms: Vec::new(),
        };
        self.add(&mut acc, e, 1);
        self.finish(acc)
    }

    /// Adds `k · e` to `acc`.
    fn add(&mut self, acc: &mut Acc, e: &Expr, k: i64) {
        match e {
            Expr::Const(c) => acc.c = acc.c.wrapping_add(k.wrapping_mul(*c)),
            Expr::Var(v) => {
                if v.0 < self.num_vars {
                    self.add_term(acc, k, v.0);
                }
            }
            Expr::Input(i) => {
                let x = self.inputs.get(*i).copied().unwrap_or(0);
                acc.c = acc.c.wrapping_add(k.wrapping_mul(x));
            }
            Expr::InputDyn(idx) => match self.lower(idx) {
                Form::Const(i) => {
                    let x = input_at(self.inputs, i);
                    acc.c = acc.c.wrapping_add(k.wrapping_mul(x));
                }
                idx => acc.atoms.push((k, Atom::Input(idx))),
            },
            Expr::Add(a, b) => {
                self.add(acc, a, k);
                self.add(acc, b, k);
            }
            Expr::Sub(a, b) => {
                self.add(acc, a, k);
                self.add(acc, b, k.wrapping_neg());
            }
            // A literal factor (`x * 8`, the common case) scales the other
            // side in place; otherwise both sides are lowered first to see
            // whether either folds to a constant.
            Expr::Mul(a, b) => match (a.as_const(), b.as_const()) {
                (Some(x), _) => self.add(acc, b, k.wrapping_mul(x)),
                (_, Some(x)) => self.add(acc, a, k.wrapping_mul(x)),
                _ => match (self.lower(a), self.lower(b)) {
                    (Form::Const(x), f) | (f, Form::Const(x)) => {
                        self.add_form(acc, f, k.wrapping_mul(x))
                    }
                    (l, r) => acc.atoms.push((k, Atom::Mul(l, r))),
                },
            },
        }
    }

    fn add_term(&mut self, acc: &Acc, m: i64, v: u32) {
        match self.terms[acc.start..].iter_mut().find(|t| t.1 == v) {
            Some(t) => t.0 = t.0.wrapping_add(m),
            None => self.terms.push((m, v)),
        }
    }

    /// Adds `k · f` to `acc`.
    fn add_form(&mut self, acc: &mut Acc, f: Form, k: i64) {
        match f {
            Form::Const(c) => acc.c = acc.c.wrapping_add(k.wrapping_mul(c)),
            Form::Lin1 { c, m, v } => {
                acc.c = acc.c.wrapping_add(k.wrapping_mul(c));
                self.add_term(acc, k.wrapping_mul(m), v);
            }
            Form::Lin2 { c, m, v } => {
                acc.c = acc.c.wrapping_add(k.wrapping_mul(c));
                self.add_term(acc, k.wrapping_mul(m[0]), v[0]);
                self.add_term(acc, k.wrapping_mul(m[1]), v[1]);
            }
            Form::LinN { c, terms } => {
                acc.c = acc.c.wrapping_add(k.wrapping_mul(c));
                for (m, v) in terms.iter() {
                    self.add_term(acc, k.wrapping_mul(*m), *v);
                }
            }
            Form::Mixed(x) => {
                let Mixed { lin, atoms } = *x;
                self.add_form(acc, lin, k);
                for (m, a) in atoms.into_vec() {
                    acc.atoms.push((k.wrapping_mul(m), a));
                }
            }
        }
    }

    fn finish(&mut self, mut acc: Acc) -> Form {
        // A variable whose coefficients cancel (`v - v`) contributes nothing.
        let c = acc.c;
        let terms = &self.terms[acc.start..];
        let mut live = terms.iter().copied().filter(|t| t.0 != 0);
        let lin = match (live.next(), live.next(), live.next()) {
            (None, _, _) => Form::Const(c),
            (Some((m, v)), None, _) => Form::Lin1 { c, m, v },
            (Some((m0, v0)), Some((m1, v1)), None) => Form::Lin2 {
                c,
                m: [m0, m1],
                v: [v0, v1],
            },
            _ => Form::LinN {
                c,
                terms: terms.iter().copied().filter(|t| t.0 != 0).collect(),
            },
        };
        self.terms.truncate(acc.start);
        acc.atoms.retain(|a| a.0 != 0);
        if acc.atoms.is_empty() {
            lin
        } else {
            Form::Mixed(Box::new(Mixed {
                lin,
                atoms: acc.atoms.into_boxed_slice(),
            }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::VarId;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    fn v(i: u32) -> Expr {
        Expr::var(VarId(i))
    }

    fn lower(e: &Expr, num_vars: u32, inputs: &[i64]) -> Form {
        Lowerer::new(num_vars, inputs).lower(e)
    }

    #[test]
    fn affine_trees_become_inline_forms() {
        // lbm's stencil index: ((y*64 + x) - 1) * 8.
        let e = ((v(0) * 64 + v(1)) - 1) * 8;
        assert_eq!(
            lower(&e, 2, &[]),
            Form::Lin2 {
                c: -8,
                m: [512, 8],
                v: [0, 1]
            }
        );
        assert_eq!(lower(&(v(0) - v(0) + 3), 1, &[]), Form::Const(3));
        let scaled = lower(&(Expr::input(1) * v(0)), 1, &[5, 7]);
        assert_eq!(scaled, Form::Lin1 { c: 0, m: 7, v: 0 });
        assert_eq!(lower(&v(9), 2, &[]), Form::Const(0), "unbound reads 0");
        let five = (1..=5).fold(Expr::Const(0), |e, i| e + v(i));
        assert!(matches!(lower(&five, 6, &[]), Form::LinN { .. }));
    }

    #[test]
    fn non_linear_trees_fall_back_to_atoms() {
        let inputs = [10, 20, 30];
        assert!(matches!(lower(&(v(0) * v(1)), 2, &[]), Form::Mixed(_)));
        assert!(matches!(
            lower(&(Expr::input_at(v(0)) * 8), 1, &inputs),
            Form::Mixed(_)
        ));
        // A constant index is read at lowering time.
        assert_eq!(
            lower(&Expr::input_at(Expr::Const(2)), 0, &inputs),
            Form::Const(30)
        );
    }

    /// Random expression trees over a few variables, some unbound, with the
    /// extreme constants and dynamic input reads at any index.
    struct Trees {
        depth: u32,
    }

    impl Strategy for Trees {
        type Value = Expr;
        fn new_value(&self, rng: &mut TestRng) -> Expr {
            tree(rng, self.depth)
        }
    }

    fn tree(rng: &mut TestRng, depth: u32) -> Expr {
        let leaf = depth == 0 || rng.below(4) == 0;
        if leaf {
            return match rng.below(8) {
                0 => Expr::Const(i64::MIN),
                1 => Expr::Const(i64::MAX),
                2 => Expr::Const(rng.next_u64() as i64),
                3 => Expr::Const(rng.below(9) as i64 - 4),
                4 => Expr::input(rng.below(6)),
                // Variables 0..4 are bound, 4..6 are not.
                _ => v(rng.below(6) as u32),
            };
        }
        let a = Box::new(tree(rng, depth - 1));
        match rng.below(7) {
            0 | 1 => Expr::Add(a, Box::new(tree(rng, depth - 1))),
            2 => Expr::Sub(a, Box::new(tree(rng, depth - 1))),
            // Cancellation: `a - a` leaves zero coefficients.
            3 => Expr::Sub(a.clone(), a),
            4 => Expr::InputDyn(a),
            _ => Expr::Mul(a, Box::new(tree(rng, depth - 1))),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]
        #[test]
        fn lowering_matches_eval(
            e in Trees { depth: 6 },
            vars in prop::collection::vec(-6i64..6, 4),
            big in prop::collection::vec(i64::MIN..i64::MAX, 4),
            inputs in prop::collection::vec(-3i64..8, 0..6),
            wide in 0u8..2,
        ) {
            // Small values index the inputs (including negative and
            // out-of-range indexes); extreme ones overflow every product.
            let vars = if wide == 1 { big } else { vars };
            let mut lowerer = Lowerer::new(vars.len() as u32, &inputs);
            let form = lowerer.lower(&e);
            prop_assert_eq!(form.eval(&vars, &inputs), e.eval(&vars, &inputs));
            // Nested lowerings pop every term they push.
            prop_assert!(lowerer.terms.is_empty());
        }
    }
}
