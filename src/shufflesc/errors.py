class SizeGuardError(ValueError):
    """A computation would exceed its configured size guard, which protects
    against accidentally launching an exponential-size enumeration.

    `refusal` says what was refused.  `keyword` names the limit argument
    that widens the guard, or is None where there is none (the CLI's own
    value guard).  The message is the refusal, followed by
    "; raise <keyword> to override" when there is a keyword.
    """

    def __init__(self, refusal: str, keyword: str | None = None):
        self.refusal, self.keyword = refusal, keyword
        hint = "" if keyword is None else f"; raise {keyword} to override"
        super().__init__(refusal + hint)
