//! Offline stand-in for `rayon`: the parallel-iterator entry points this
//! workspace uses, executed sequentially over std iterators.

pub mod prelude {
    pub trait IntoParallelIterator: IntoIterator + Sized {
        fn into_par_iter(self) -> Self::IntoIter {
            self.into_iter()
        }
    }
    impl<I: IntoIterator + Sized> IntoParallelIterator for I {}

    pub trait IntoParallelRefIterator<'a> {
        type Iter;
        fn par_iter(&'a self) -> Self::Iter;
    }
    impl<'a, C: 'a + ?Sized> IntoParallelRefIterator<'a> for C
    where
        &'a C: IntoIterator,
    {
        type Iter = <&'a C as IntoIterator>::IntoIter;
        fn par_iter(&'a self) -> Self::Iter {
            self.into_iter()
        }
    }

    pub trait IntoParallelRefMutIterator<'a> {
        type Iter;
        fn par_iter_mut(&'a mut self) -> Self::Iter;
    }
    impl<'a, C: 'a + ?Sized> IntoParallelRefMutIterator<'a> for C
    where
        &'a mut C: IntoIterator,
    {
        type Iter = <&'a mut C as IntoIterator>::IntoIter;
        fn par_iter_mut(&'a mut self) -> Self::Iter {
            self.into_iter()
        }
    }

    /// Rayon-only iterator adaptors, mapped onto their std equivalents.
    pub trait ParallelIterator: Iterator + Sized {
        fn flat_map_iter<U, F>(self, f: F) -> std::iter::FlatMap<Self, U, F>
        where
            U: IntoIterator,
            F: FnMut(Self::Item) -> U,
        {
            self.flat_map(f)
        }

        fn with_min_len(self, _n: usize) -> Self {
            self
        }

        /// One `init()` state for the whole (sequential) run.
        fn map_init<T, R, INIT, F>(self, init: INIT, mut map_op: F) -> impl Iterator<Item = R>
        where
            INIT: Fn() -> T,
            F: FnMut(&mut T, Self::Item) -> R,
        {
            let mut state = init();
            self.map(move |item| map_op(&mut state, item))
        }
    }
    impl<I: Iterator> ParallelIterator for I {}
}

pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA,
    B: FnOnce() -> RB,
{
    (a(), b())
}