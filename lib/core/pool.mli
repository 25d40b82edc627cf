val env_domains : unit -> int
(** Always [1]: evaluation is single-domain. Kept because medbench
    records it in its run metadata. *)
