//! Cooperative query cancellation.
//!
//! A [`CancelToken`] is a shared flag plus an optional deadline that
//! travels with an evaluation: the executor installs one in the
//! [`EvalCtx`](crate::EvalCtx), and the long loops in the matcher,
//! the join kernels, the path searchers and CONSTRUCT poll it at their
//! natural iteration boundaries. Polling is *cooperative* — nothing is
//! ever interrupted mid-operation, so a fired token surfaces as an
//! ordinary [`RuntimeError::Cancelled`](crate::error::RuntimeError)
//! (`E016`) and the worker thread returns to its pool instead of being
//! abandoned mid-flight.
//!
//! Two routines read a token, and every poll site goes through one of
//! them: [`CancelToken::check`] polls now — at a loop head, or where a
//! loop keeps its own stride (the path searchers count frontier pops,
//! the joins candidate row pairs) — and [`CancelToken::checkpoint`]
//! keeps the count for a hot loop, consulting the token once per
//! [`CHECK_STRIDE`] iterations (checking the flag is a relaxed atomic
//! load, checking the deadline an `Instant::now()` call). Both return
//! the error, and every poll site propagates it where it stands: no
//! search or join hands back a partial or empty answer because its
//! token fired, so no caller checks the token again to throw such an
//! answer away.

use crate::error::{EngineError, Result, RuntimeError};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many loop iterations pass between deadline checks in
/// [`CancelToken::checkpoint`]. A power of two so the modulo folds
/// into a mask.
pub const CHECK_STRIDE: u32 = 1024;

/// A shared cancellation signal: an atomic flag any holder may raise,
/// plus an optional wall-clock deadline after which the token counts
/// as fired even if nobody raised the flag.
///
/// Clones share the flag, so cancelling through any clone is observed
/// by all of them. The default token never fires.
#[derive(Debug, Clone)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl CancelToken {
    /// A token that never fires on its own; it only cancels when
    /// [`cancel`](Self::cancel) is called on it or a clone.
    #[must_use]
    pub fn new() -> Self {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            deadline: None,
        }
    }

    /// A copy of this token that additionally fires at `deadline`.
    /// When the token already carries an earlier deadline, the earlier
    /// one is kept: derived scopes can only tighten the budget.
    #[must_use]
    pub fn with_deadline(&self, deadline: Instant) -> Self {
        let effective = match self.deadline {
            Some(existing) if existing <= deadline => existing,
            _ => deadline,
        };
        CancelToken {
            flag: Arc::clone(&self.flag),
            deadline: Some(effective),
        }
    }

    /// A copy of this token that additionally fires `budget` from now.
    #[must_use]
    pub fn with_timeout(&self, budget: Duration) -> Self {
        self.with_deadline(Instant::now() + budget)
    }

    /// Raise the flag: every clone of this token observes the
    /// cancellation at its next poll.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Has this token fired — either the shared flag was raised or the
    /// deadline passed?
    fn is_cancelled(&self) -> bool {
        if self.flag.load(Ordering::Relaxed) {
            return true;
        }
        match self.deadline {
            Some(deadline) => Instant::now() >= deadline,
            None => false,
        }
    }

    /// Error out when the token has fired; the `Ok` path costs one
    /// relaxed load plus (when a deadline is set) one clock read.
    pub fn check(&self) -> Result<()> {
        if self.is_cancelled() {
            Err(EngineError::Runtime(RuntimeError::Cancelled))
        } else {
            Ok(())
        }
    }

    /// Strided check for hot loops: bumps `tick` and only consults
    /// [`check`](Self::check) every [`CHECK_STRIDE`] calls, so the
    /// steady-state cost is one increment and one branch.
    pub fn checkpoint(&self, tick: &mut u32) -> Result<()> {
        *tick = tick.wrapping_add(1);
        if tick.is_multiple_of(CHECK_STRIDE) {
            self.check()
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_never_fires() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert!(t.check().is_ok());
    }

    #[test]
    fn cancel_is_shared_across_clones() {
        let t = CancelToken::new();
        let clone = t.clone();
        t.cancel();
        assert!(clone.is_cancelled());
        assert!(matches!(
            clone.check(),
            Err(EngineError::Runtime(RuntimeError::Cancelled))
        ));
    }

    #[test]
    fn past_deadline_fires() {
        let past = Instant::now()
            .checked_sub(Duration::from_millis(1))
            .unwrap();
        let t = CancelToken::new().with_deadline(past);
        assert!(t.is_cancelled());
    }

    #[test]
    fn generous_deadline_does_not_fire() {
        let t = CancelToken::new().with_timeout(Duration::from_hours(1));
        assert!(!t.is_cancelled());
    }

    #[test]
    fn deadlines_only_tighten() {
        let near = Instant::now()
            .checked_sub(Duration::from_millis(1))
            .unwrap();
        let far = Instant::now() + Duration::from_hours(1);
        let t = CancelToken::new().with_deadline(near).with_deadline(far);
        assert!(
            t.is_cancelled(),
            "later deadline must not loosen an earlier one"
        );
    }

    #[test]
    fn checkpoint_observes_cancellation_within_a_stride() {
        let t = CancelToken::new();
        t.cancel();
        let mut tick = 0u32;
        let fired = (0..CHECK_STRIDE).any(|_| t.checkpoint(&mut tick).is_err());
        assert!(fired, "a full stride of checkpoints must notice the flag");
    }
}
