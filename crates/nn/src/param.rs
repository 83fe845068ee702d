//! Parameter storage and per-pass sessions.

use rand::rngs::StdRng;
use rand::SeedableRng;
use stisan_tensor::{Arena, Array, Exec, NoTape, OwnedTape, Tape, Var};

/// Handle to a parameter inside a [`ParamStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

struct ParamEntry {
    name: String,
    value: Array,
}

/// Owns every trainable parameter of a model.
///
/// Layers register their weights here at construction time and keep
/// [`ParamId`] handles; a [`Session`] binds parameters into an autodiff graph
/// for one forward/backward pass; optimizers mutate the stored values.
#[derive(Default)]
pub struct ParamStore {
    params: Vec<ParamEntry>,
}

impl ParamStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter and returns its handle.
    pub fn register(&mut self, name: impl Into<String>, value: Array) -> ParamId {
        self.params.push(ParamEntry { name: name.into(), value });
        ParamId(self.params.len() - 1)
    }

    /// Current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Array {
        &self.params[id.0].value
    }

    /// Mutable access to a parameter's value (used by optimizers).
    pub fn value_mut(&mut self, id: ParamId) -> &mut Array {
        &mut self.params[id.0].value
    }

    /// The registered name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.params[id.0].name
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.params.len()
    }

    /// Whether no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.params.is_empty()
    }

    /// Total number of scalar parameters (for the paper's "no extra
    /// parameters" claims and model-size reporting).
    pub fn num_scalars(&self) -> usize {
        self.params.iter().map(|p| p.value.len()).sum()
    }

    /// Iterates over all parameter handles.
    pub fn ids(&self) -> impl Iterator<Item = ParamId> {
        (0..self.params.len()).map(ParamId)
    }
}

/// One forward (and, on the recording tape, backward) pass: a fresh
/// executor plus lazy, cached bindings of store parameters into it.
///
/// Binding the same [`ParamId`] twice returns the same [`Var`], so gradients
/// from all uses of a shared parameter accumulate correctly.
///
/// The tape type parameter `T` defaults to [`OwnedTape`], the autodiff tape;
/// [`Session::frozen`] builds an inference-only session on [`NoTape`]
/// instead. Layers and models are generic over `T`, so both run the same
/// forward code.
pub struct Session<'s, T: Tape = OwnedTape> {
    /// The executor (public: models compose ops directly).
    pub g: Exec<T>,
    store: &'s ParamStore,
    bound: Vec<Option<Var>>,
    /// Whether dropout (and other train-only behaviour) is active.
    pub training: bool,
    rng: StdRng,
}

impl<'s> Session<'s, OwnedTape> {
    /// Creates a tape-backed session over `store`. `seed` drives dropout
    /// masks.
    pub fn new(store: &'s ParamStore, training: bool, seed: u64) -> Self {
        Session {
            g: Exec::new(),
            store,
            bound: vec![None; store.len()],
            training,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Runs backward from scalar `loss` and collects parameter gradients.
    pub fn backward_and_grads(&mut self, loss: Var) -> Vec<(ParamId, Array)> {
        let _span = stisan_obs::span("backward");
        self.g.backward(loss);
        let mut out = Vec::new();
        for (i, bound) in self.bound.iter().enumerate() {
            if let Some(v) = bound {
                if let Some(grad) = self.g.grad(*v) {
                    out.push((ParamId(i), grad.clone()));
                }
            }
        }
        out
    }
}

impl<'s> Session<'s, NoTape> {
    /// Creates an inference-only session over frozen weights: no tape, no
    /// gradient bookkeeping, dropout forced off. Forward values are
    /// bit-identical to an eval-mode tape session over the same store.
    pub fn frozen(store: &'s ParamStore) -> Self {
        Session::frozen_in(store, Arena::new())
    }

    /// Like [`Session::frozen`], but drawing every scratch buffer from
    /// `arena` — the steady-state serving constructor. With a warmed-up
    /// arena (recycled from a previous pass via [`Session::recycle`]) the
    /// whole forward pass performs zero heap allocations, and the scores are
    /// bit-identical to [`Session::frozen`] because recycled buffer contents
    /// are never read (set-semantics kernels).
    pub fn frozen_in(store: &'s ParamStore, mut arena: Arena) -> Self {
        let mut bound = arena.take_bound_slots();
        bound.resize(store.len(), None);
        Session {
            g: Exec::with_arena(arena),
            store,
            bound,
            training: false,
            rng: StdRng::seed_from_u64(0),
        }
    }

    /// Tears the session down, recycling every node value's storage (and the
    /// parameter-bind table) back into the arena for the next request.
    pub fn recycle(self) -> Arena {
        let mut arena = self.g.into_arena();
        arena.put_bound_slots(self.bound);
        arena
    }
}

impl<'s, T: Tape> Session<'s, T> {
    /// Binds a parameter into the executor (cached per session).
    pub fn param(&mut self, id: ParamId) -> Var {
        if let Some(v) = self.bound[id.0] {
            return v;
        }
        let v = self.g.leaf(self.store.value(id).clone(), true);
        self.bound[id.0] = Some(v);
        v
    }

    /// Adds a non-trainable constant to the executor.
    pub fn constant(&mut self, a: Array) -> Var {
        self.g.constant(a)
    }

    /// Inverted dropout driven by the session RNG and `training` flag.
    pub fn dropout(&mut self, v: Var, rate: f32) -> Var {
        let training = self.training;
        self.g.dropout(v, rate, training, &mut self.rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut store = ParamStore::new();
        let id = store.register("w", Array::ones(vec![2, 2]));
        assert_eq!(store.value(id).shape(), &[2, 2]);
        assert_eq!(store.name(id), "w");
        assert_eq!(store.num_scalars(), 4);
    }

    #[test]
    fn binding_is_cached_and_grads_accumulate() {
        let mut store = ParamStore::new();
        let id = store.register("w", Array::from_vec(vec![2], vec![1.0, 2.0]));
        let mut sess = Session::new(&store, true, 0);
        let a = sess.param(id);
        let b = sess.param(id);
        assert_eq!(a, b, "same ParamId must bind to the same Var");
        // loss = sum(w * w) -> grad = 2w
        let prod = sess.g.mul(a, b);
        let loss = sess.g.sum_all(prod);
        let grads = sess.backward_and_grads(loss);
        assert_eq!(grads.len(), 1);
        assert_eq!(grads[0].1.data(), &[2.0, 4.0]);
    }

    #[test]
    fn untouched_params_have_no_grad() {
        let mut store = ParamStore::new();
        let a = store.register("a", Array::ones(vec![1]));
        let _b = store.register("b", Array::ones(vec![1]));
        let mut sess = Session::new(&store, true, 0);
        let va = sess.param(a);
        let loss = sess.g.sum_all(va);
        let grads = sess.backward_and_grads(loss);
        assert_eq!(grads.len(), 1);
        assert_eq!(grads[0].0, a);
    }
}
